// Package osimage composes the integrity-enforced operating system of
// the paper's Figure 4: a virtual filesystem measured by IMA into a TPM,
// an account database rendered into /etc/passwd, /etc/shadow and
// /etc/group (the three files the paper's sanitizer predicts), a login
// shell registry (/etc/shells), and the installed-package database the
// package manager maintains.
//
// Image implements script.System, so installation scripts execute
// directly against it — including the nondeterminism the paper fixes:
// account lines are appended in execution order, so different package
// installation orders yield different /etc file contents unless the
// scripts have been sanitized.
package osimage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tsr/internal/ima"
	"tsr/internal/keys"
	"tsr/internal/policy"
	"tsr/internal/script"
	"tsr/internal/tpm"
	"tsr/internal/vfs"
)

// Paths of the deterministically rendered configuration files.
const (
	PasswdPath = "/etc/passwd"
	ShadowPath = "/etc/shadow"
	GroupPath  = "/etc/group"
	ShellsPath = "/etc/shells"
)

// ErrNoUser is returned by SetPassword for unknown accounts.
var ErrNoUser = errors.New("osimage: no such user")

// Image is one integrity-enforced OS instance.
type Image struct {
	FS  *vfs.FS
	TPM *tpm.TPM
	IMA *ima.IMA

	mu      sync.Mutex
	users   []script.User
	groups  []script.Group
	shells  []string
	nextUID int
	nextGID int
}

// New boots an image: base filesystem, TPM with the given attestation
// key, IMA engine, and the initial configuration files from the policy
// (Listing 1 init_config_files), which are parsed to seed the account
// database.
func New(ak *keys.Pair, initFiles []policy.ConfigFile) (*Image, error) {
	fs := vfs.New()
	t := tpm.New(ak)
	img := &Image{
		FS:      fs,
		TPM:     t,
		IMA:     ima.New(fs, t),
		nextUID: 100,
		nextGID: 100,
	}
	for _, d := range []string{"/etc", "/bin", "/usr/bin", "/usr/sbin", "/lib", "/var", "/tmp", "/home"} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	seeded := map[string]bool{}
	for _, f := range initFiles {
		if err := fs.WriteFile(f.Path, []byte(f.Content), 0o644); err != nil {
			return nil, fmt.Errorf("osimage: init config %s: %w", f.Path, err)
		}
		seeded[f.Path] = true
		switch f.Path {
		case PasswdPath:
			if err := img.seedPasswd(f.Content); err != nil {
				return nil, err
			}
		case GroupPath:
			if err := img.seedGroups(f.Content); err != nil {
				return nil, err
			}
		case ShellsPath:
			for _, line := range strings.Split(f.Content, "\n") {
				if line = strings.TrimSpace(line); line != "" {
					img.shells = append(img.shells, line)
				}
			}
		}
	}
	if !seeded[PasswdPath] {
		img.users = []script.User{{Name: "root", UID: 0, GID: 0, Gecos: "root", Home: "/root", Shell: "/bin/ash"}}
	}
	if !seeded[GroupPath] {
		img.groups = []script.Group{{Name: "root", GID: 0}}
	}
	if !seeded[ShellsPath] {
		img.shells = []string{"/bin/ash"}
	}
	// Render all account files canonically: the account database is the
	// source of truth, and the first adduser would rewrite the files in
	// renderer format anyway — starting canonical keeps the sanitizer's
	// prediction exact from the first package on.
	if err := img.renderAccountsLocked(); err != nil {
		return nil, err
	}
	if err := img.renderShellsLocked(); err != nil {
		return nil, err
	}
	return img, nil
}

// seedPasswd parses passwd-format lines into the account database.
func (img *Image) seedPasswd(content string) error {
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, ":")
		if len(parts) != 7 {
			return fmt.Errorf("osimage: bad passwd line %q", line)
		}
		var uid, gid int
		if _, err := fmt.Sscanf(parts[2]+" "+parts[3], "%d %d", &uid, &gid); err != nil {
			return fmt.Errorf("osimage: bad passwd ids in %q", line)
		}
		img.users = append(img.users, script.User{
			Name: parts[0], UID: uid, GID: gid,
			Gecos: parts[4], Home: parts[5], Shell: parts[6],
		})
		if uid >= img.nextUID {
			img.nextUID = uid + 1
		}
	}
	return nil
}

// seedGroups parses group-format lines.
func (img *Image) seedGroups(content string) error {
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, ":")
		if len(parts) < 3 {
			return fmt.Errorf("osimage: bad group line %q", line)
		}
		var gid int
		if _, err := fmt.Sscanf(parts[2], "%d", &gid); err != nil {
			return fmt.Errorf("osimage: bad group line %q", line)
		}
		img.groups = append(img.groups, script.Group{Name: parts[0], GID: gid})
		if gid >= img.nextGID {
			img.nextGID = gid + 1
		}
	}
	return nil
}

// renderAccountsLocked rewrites /etc/passwd, /etc/shadow and /etc/group
// from the account database *in database order* — installation order
// leaks into file contents, which is precisely the nondeterminism the
// sanitizer must pre-empt. Caller must hold mu.
func (img *Image) renderAccountsLocked() error {
	var passwd, shadow strings.Builder
	for _, u := range img.users {
		fmt.Fprintf(&passwd, "%s:x:%d:%d:%s:%s:%s\n", u.Name, u.UID, u.GID, u.Gecos, u.Home, u.Shell)
		fmt.Fprintf(&shadow, "%s:%s:0:::::\n", u.Name, shadowHashField(u))
	}
	var group strings.Builder
	for _, g := range img.groups {
		fmt.Fprintf(&group, "%s:x:%d:\n", g.Name, g.GID)
	}
	if err := img.FS.WriteFile(PasswdPath, []byte(passwd.String()), 0o644); err != nil {
		return err
	}
	if err := img.FS.WriteFile(ShadowPath, []byte(shadow.String()), 0o640); err != nil {
		return err
	}
	return img.FS.WriteFile(GroupPath, []byte(group.String()), 0o644)
}

// shadowHashField renders the password field of a shadow line: "!" for
// locked (default), "" for the CVE-2019-5021-style empty password.
func shadowHashField(u script.User) string {
	if u.NoPassword {
		return ""
	}
	return "!"
}

func (img *Image) renderShellsLocked() error {
	var b strings.Builder
	for _, s := range img.shells {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return img.FS.WriteFile(ShellsPath, []byte(b.String()), 0o644)
}

// --- script.System implementation -----------------------------------

// MkdirAll implements script.System.
func (img *Image) MkdirAll(path string, mode uint32) error {
	return img.FS.MkdirAll(path, mode)
}

// Remove implements script.System.
func (img *Image) Remove(path string, recursive bool) error {
	if recursive {
		return img.FS.RemoveAll(path)
	}
	return img.FS.Remove(path)
}

// Rename implements script.System.
func (img *Image) Rename(oldPath, newPath string) error {
	return img.FS.Rename(oldPath, newPath)
}

// Copy implements script.System.
func (img *Image) Copy(src, dst string) error {
	content, err := img.FS.ReadFile(src)
	if err != nil {
		return err
	}
	info, err := img.FS.Stat(src)
	if err != nil {
		return err
	}
	return img.FS.WriteFile(dst, content, info.Mode)
}

// Symlink implements script.System.
func (img *Image) Symlink(target, link string) error {
	return img.FS.Symlink(target, link)
}

// Chmod implements script.System.
func (img *Image) Chmod(path string, mode uint32) error {
	return img.FS.Chmod(path, mode)
}

// Chown implements script.System.
func (img *Image) Chown(path, owner string) error {
	return img.FS.Chown(path, owner)
}

// Touch implements script.System.
func (img *Image) Touch(path string) error {
	if img.FS.Exists(path) {
		return nil
	}
	return img.FS.WriteFile(path, nil, 0o644)
}

// WriteFile implements script.System.
func (img *Image) WriteFile(path string, data []byte, appendTo bool) error {
	if appendTo {
		return img.FS.AppendFile(path, data, 0o644)
	}
	return img.FS.WriteFile(path, data, 0o644)
}

// ReadFile implements script.System.
func (img *Image) ReadFile(path string) ([]byte, error) {
	return img.FS.ReadFile(path)
}

// Exists implements script.System.
func (img *Image) Exists(path string) bool {
	return img.FS.Exists(path)
}

// AddUser implements script.System. A UID/GID of -1 allocates the next
// free id. Re-adding an existing user is idempotent (matching busybox
// adduser -S semantics in packages that guard with conditionals).
func (img *Image) AddUser(u script.User) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	for _, have := range img.users {
		if have.Name == u.Name {
			return nil // idempotent
		}
	}
	if u.UID < 0 {
		u.UID = img.nextUID
		img.nextUID++
	} else if u.UID >= img.nextUID {
		img.nextUID = u.UID + 1
	}
	if u.GID < 0 {
		u.GID = u.UID
	}
	img.users = append(img.users, u)
	return img.renderAccountsLocked()
}

// AddGroup implements script.System.
func (img *Image) AddGroup(g script.Group) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	for _, have := range img.groups {
		if have.Name == g.Name {
			return nil // idempotent
		}
	}
	if g.GID < 0 {
		g.GID = img.nextGID
		img.nextGID++
	} else if g.GID >= img.nextGID {
		img.nextGID = g.GID + 1
	}
	img.groups = append(img.groups, g)
	return img.renderAccountsLocked()
}

// SetPassword implements script.System. An empty hash marks the user
// passwordless (rendered as an empty shadow field).
func (img *Image) SetPassword(name, hash string) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	for i := range img.users {
		if img.users[i].Name == name {
			img.users[i].NoPassword = hash == ""
			return img.renderAccountsLocked()
		}
	}
	return fmt.Errorf("%w: %q", ErrNoUser, name)
}

// AddShell implements script.System.
func (img *Image) AddShell(path string) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	for _, s := range img.shells {
		if s == path {
			return nil
		}
	}
	img.shells = append(img.shells, path)
	return img.renderShellsLocked()
}

// LabelTree signs every regular file under root with the given key and
// installs the signatures as security.ima xattrs — the provisioning
// step a real IMA-appraisal deployment performs on the golden image
// before enabling enforcement ("evmctl ima_sign" over the filesystem).
//
//lint:allow deadexport tests provision a golden image for appraisal
func (img *Image) LabelTree(root string, pair *keys.Pair) error {
	var paths []string
	err := img.FS.Walk(root, func(info vfs.FileInfo) error {
		if info.Type == vfs.Regular {
			paths = append(paths, info.Path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range paths {
		content, err := img.FS.ReadFile(p)
		if err != nil {
			return err
		}
		sig, err := ima.SignFileDigest(pair, content)
		if err != nil {
			return err
		}
		if err := img.FS.SetXattr(p, ima.XattrIMA, sig); err != nil {
			return err
		}
	}
	return nil
}

// SetXattr implements script.System.
func (img *Image) SetXattr(path, name string, value []byte) error {
	return img.FS.SetXattr(path, name, value)
}

// --- configuration fingerprint ---------------------------------------

// ConfigDigestPaths are the OS configuration files whose contents the
// sanitizer predicts and signs.
func ConfigDigestPaths() []string {
	return []string{PasswdPath, ShadowPath, GroupPath, ShellsPath}
}

// ConfigFingerprint summarizes the current contents of the predicted
// configuration files, used by tests asserting order-independence.
//
//lint:allow deadexport tests compare configuration states across install orders
func (img *Image) ConfigFingerprint() (string, error) {
	var parts []string
	for _, p := range ConfigDigestPaths() {
		content, err := img.FS.ReadFile(p)
		if err != nil {
			return "", err
		}
		parts = append(parts, p+"="+string(content))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x00"), nil
}
