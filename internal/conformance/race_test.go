//go:build race

package conformance

func init() { raceEnabled = true }
