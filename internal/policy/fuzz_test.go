package policy

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// FuzzParsePolicy feeds Parse arbitrary bytes, as POST /policies does
// with bodies of up to 10 MiB. Parse must not panic, must refuse with
// ErrFormat, must allocate at most 64 bytes per input byte plus 64 KiB,
// and a policy it accepts must survive Marshal → Parse unchanged.
func FuzzParsePolicy(f *testing.F) {
	for _, src := range parseErrorCases {
		f.Add([]byte(src))
	}
	f.Add([]byte(listing1(signerPEM(f, "alpine-4a40"))))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Parse(raw)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(raw))+64<<10 {
			t.Fatalf("Parse allocated %d bytes for %d input bytes", n, len(raw))
		}
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Parse error is not ErrFormat: %v", err)
			}
			return
		}
		enc := p.Marshal()
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("Marshal output does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("policy changed across Marshal → Parse:\n%+v\nvs\n%+v\nmarshaled:\n%s", p, again, enc)
		}
	})
}
