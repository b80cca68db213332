package script

import (
	"fmt"
	"sort"
	"strings"
)

// OpClass is an operation class from the paper's Table 2.
type OpClass int

const (
	// OpFilesystem covers add/remove/modify of folders, symbolic links,
	// and their permissions. Safe for OS integrity as defined by IMA.
	OpFilesystem OpClass = iota
	// OpEmpty covers conditional checks and displaying information.
	OpEmpty
	// OpTextProcessing covers read-only text utilities (parsing existing
	// OS configuration without altering any file).
	OpTextProcessing
	// OpConfigChange covers in-place modification of arbitrary existing
	// configuration files. Unsafe, and NOT sanitizable by TSR.
	OpConfigChange
	// OpEmptyFile covers creation of new empty files. Unsafe as-is, but
	// sanitizable (the predicted empty content can be signed).
	OpEmptyFile
	// OpUserGroup covers user and group creation (and password setting).
	// Unsafe as-is, but sanitizable via whole-repository prediction.
	OpUserGroup
	// OpShellActivation covers add-shell. Unsafe, and intentionally NOT
	// sanitized (the paper argues shell installation belongs to initial
	// OS configuration, not updates).
	OpShellActivation
	numOpClasses
)

// String implements fmt.Stringer, matching Table 2 row labels.
func (c OpClass) String() string {
	switch c {
	case OpFilesystem:
		return "Filesystem changes"
	case OpEmpty:
		return "Empty scripts"
	case OpTextProcessing:
		return "Text processing"
	case OpConfigChange:
		return "Configuration change"
	case OpEmptyFile:
		return "Empty file creation"
	case OpUserGroup:
		return "User/Group creation"
	case OpShellActivation:
		return "Shell activation"
	default:
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
}

// AllOpClasses returns every class in Table 2 row order.
func AllOpClasses() []OpClass {
	out := make([]OpClass, numOpClasses)
	for i := range out {
		out[i] = OpClass(i)
	}
	return out
}

// SafeBeforeTSR reports whether the class leaves OS integrity intact
// without sanitization (Table 2 column "Safe").
func (c OpClass) SafeBeforeTSR() bool {
	switch c {
	case OpFilesystem, OpEmpty, OpTextProcessing:
		return true
	default:
		return false
	}
}

// SafeAfterTSR reports whether the class is safe once sanitized
// (Table 2 column "TSR").
func (c OpClass) SafeAfterTSR() bool {
	switch c {
	case OpFilesystem, OpEmpty, OpTextProcessing, OpEmptyFile, OpUserGroup:
		return true
	default:
		return false
	}
}

// ClassSet is a set of operation classes found in a script.
type ClassSet map[OpClass]bool

// Classes returns the members in ascending order.
func (s ClassSet) Classes() []OpClass {
	out := make([]OpClass, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SafeAfterTSR reports whether every class in the set is sanitizable.
func (s ClassSet) SafeAfterTSR() bool {
	for c := range s {
		if !c.SafeAfterTSR() {
			return false
		}
	}
	return true
}

// String renders the set like "{Filesystem changes, User/Group creation}".
func (s ClassSet) String() string {
	parts := make([]string, 0, len(s))
	for _, c := range s.Classes() {
		parts = append(parts, c.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// textProcessingCommands are read-only text utilities.
var textProcessingCommands = map[string]bool{
	"sed": true, "grep": true, "awk": true, "cut": true, "cat": true,
	"head": true, "tail": true, "sort": true, "wc": true, "tr": true,
}

// filesystemCommands alter filesystem structure without touching
// existing file contents.
var filesystemCommands = map[string]bool{
	"mkdir": true, "rmdir": true, "rm": true, "mv": true, "cp": true,
	"ln": true, "chmod": true, "chown": true, "install": true,
	// setfattr only attaches metadata (IMA signatures); it does not
	// alter file contents, so it is integrity-safe.
	"setfattr": true,
}

// emptyCommands only display information or control flow.
var emptyCommands = map[string]bool{
	"echo": true, "true": true, "exit": true, ":": true, "printf": true,
	"[": true, "test": true, "command": true, "which": true,
}

// userGroupCommands create users/groups or set passwords.
var userGroupCommands = map[string]bool{
	"adduser": true, "addgroup": true, "passwd": true, "deluser": true, "delgroup": true,
}

// configChangeCommands modify existing configuration files in
// unpredictable ways.
var configChangeCommands = map[string]bool{
	"update-conf": true, "setup-timezone": true, "rc-update": true,
}

// ClassifyCommand returns the operation class of a single command.
func ClassifyCommand(c *Command) OpClass {
	switch {
	case c.Name == "add-shell":
		return OpShellActivation
	case userGroupCommands[c.Name]:
		return OpUserGroup
	case c.Name == "touch":
		// Creating a new empty file; its (empty) content is signable.
		return OpEmptyFile
	case configChangeCommands[c.Name]:
		return OpConfigChange
	case c.Name == "sed" && hasFlag(c.Args, "-i"):
		// In-place edit of an existing file: configuration change.
		return OpConfigChange
	case c.RedirectTo != "":
		// Writing command output into a file alters file contents.
		return OpConfigChange
	case filesystemCommands[c.Name]:
		return OpFilesystem
	case textProcessingCommands[c.Name]:
		return OpTextProcessing
	case emptyCommands[c.Name]:
		return OpEmpty
	default:
		// Unknown command: assume the worst (arbitrary config change).
		return OpConfigChange
	}
}

// Classify returns the set of operation classes a script may perform.
// An empty or comment-only script classifies as {OpEmpty}.
func Classify(s *Script) ClassSet {
	set := make(ClassSet)
	for _, c := range s.Commands() {
		set[ClassifyCommand(c)] = true
	}
	if len(set) == 0 {
		set[OpEmpty] = true
	}
	return set
}

func hasFlag(args []string, flag string) bool {
	for _, a := range args {
		if a == flag {
			return true
		}
	}
	return false
}
