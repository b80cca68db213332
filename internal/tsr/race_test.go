//go:build race

package tsr

func init() { raceEnabled = true }
