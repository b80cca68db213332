package osimage

import "tsr/internal/script"

// Users returns a copy of the account database.
func (img *Image) Users() []script.User {
	img.mu.Lock()
	defer img.mu.Unlock()
	return append([]script.User(nil), img.users...)
}

// Groups returns a copy of the group database.
func (img *Image) Groups() []script.Group {
	img.mu.Lock()
	defer img.mu.Unlock()
	return append([]script.Group(nil), img.groups...)
}

// Shells returns the registered login shells.
func (img *Image) Shells() []string {
	img.mu.Lock()
	defer img.mu.Unlock()
	return append([]string(nil), img.shells...)
}
