//go:build race

package pkgmgr

func init() { raceEnabled = true }
