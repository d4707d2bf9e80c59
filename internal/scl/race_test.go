//go:build race

package scl

func init() { raceEnabled = true }
