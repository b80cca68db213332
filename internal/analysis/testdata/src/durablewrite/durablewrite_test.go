package durablewrite

import "os"

// Test files are exempt: they set up and tamper with files on purpose.
func tamper(path string, raw []byte) error {
	return os.WriteFile(path, raw, 0o644)
}
