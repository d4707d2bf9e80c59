//go:build race

package simnet

func init() { raceEnabled = true }
