package deadexport

import "io"

func Unused() {} // want `exported deadexport.Unused is never used`

func TestOnly() {} // want `exported deadexport.TestOnly is used only by tests`

func UsedByMain() {}

// Buf is used from a main package.
type Buf struct{}

// WriteTo and String satisfy io.WriterTo and fmt.Stringer: callers
// reach them through the interface, so they are not flagged.
func (Buf) WriteTo(w io.Writer) (int64, error) { return 0, nil }
func (Buf) String() string                     { return "" }

// Walk is a method of a module interface.
func (Buf) Walk() {}

func (Buf) Stray() {} // want `exported deadexport.Buf.Stray is never used`

type walker interface{ Walk() }

var _ walker = Buf{}

//lint:allow deadexport a seam other tests drive
func Seam() {}

// A reason-less allow is reported and suppresses nothing.
/* want `the reason is mandatory` */ //lint:allow deadexport
func NoReason()                      {} // want `exported deadexport.NoReason is never used`
