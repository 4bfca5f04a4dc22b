// Package wiretest is the one robustness harness for every decoder written on
// internal/wire: each protocol package lists its message types once (a valid
// encoding, a decode-and-re-encode function, hand-made lying payloads) and
// gets the corruption table test and the fuzz target from here. Test support
// only — nothing outside _test.go files imports it.
package wiretest

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"

	"iolap/internal/wire"
)

// Message is one decoder under test.
type Message struct {
	Name string
	// Valid is an encoder's own output for a fixture value.
	Valid []byte
	// Recode decodes p and re-encodes the decoded value. It must return an
	// error — never panic, never size an allocation from an unchecked count —
	// on any p the decoder rejects.
	Recode func(p []byte) ([]byte, error)
	// Lies are well-formed payloads whose counts promise more than they
	// carry; each must be rejected.
	Lies [][]byte
}

// allocBound caps what decoding one small corrupt payload may allocate. The
// largest honest fixed cost is the block codec's BlockMaxRows floor (a few
// MiB of tuple headers); a count trusted off the wire costs gigabytes.
const allocBound = 32 << 20

// Check runs the corruption table over every message: the valid encoding
// must decode and re-encode to a fixpoint; a truncation at every byte offset,
// a trailing byte and every lie must each return an error within allocBound;
// and a huge uvarint spliced over every byte offset (which lands on every
// count field in turn) must not panic or over-allocate whatever it decodes to.
func Check(t *testing.T, msgs []Message) {
	huge := wire.AppendUvarint(nil, 1<<40)
	for _, m := range msgs {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			p2, err := m.Recode(m.Valid)
			if err != nil {
				t.Fatalf("valid encoding rejected: %v", err)
			}
			fixpoint(t, m, p2)
			for i := 0; i < len(m.Valid); i++ {
				mustReject(t, m, m.Valid[:i], "truncation at byte", i)
			}
			mustReject(t, m, append(append([]byte{}, m.Valid...), 0), "trailing byte after", len(m.Valid))
			for i, lie := range m.Lies {
				mustReject(t, m, lie, "lying count", i)
			}
			for i := 0; i < len(m.Valid); i++ {
				p := append(append(append([]byte{}, m.Valid[:i]...), huge...), m.Valid[i+1:]...)
				if out, err := bounded(t, m, p); err == nil {
					fixpoint(t, m, out)
				}
			}
		})
	}
}

// Fuzz is the one fuzz target, parameterised by message type: typ selects
// the decoder, and anything that decodes must re-encode to a payload that
// decodes to the same value (compared as re-encoded bytes, so floats compare
// by bits). Seeds are the encoders' own output, whole and cut in half.
func Fuzz(f *testing.F, msgs []Message) {
	for i, m := range msgs {
		f.Add(byte(i), m.Valid)
		f.Add(byte(i), m.Valid[:len(m.Valid)/2])
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		m := msgs[int(typ)%len(msgs)]
		if out, err := m.Recode(payload); err == nil {
			fixpoint(t, m, out)
		}
	})
}

// Golden pins each message's valid encoding to the hex captured before a
// codec change, keyed by message name: the change must not move a byte.
func Golden(t *testing.T, msgs []Message, want map[string]string) {
	for _, m := range msgs {
		if got := hex.EncodeToString(m.Valid); got != want[m.Name] {
			t.Errorf("%s encodes to\n%s\nwant\n%s", m.Name, got, want[m.Name])
		}
	}
}

// fixpoint requires that p — itself a re-encoding — decodes and re-encodes
// to exactly p.
func fixpoint(t *testing.T, m Message, p []byte) {
	t.Helper()
	again, err := m.Recode(p)
	if err != nil {
		t.Fatalf("%s: re-encoded payload rejected: %v", m.Name, err)
	}
	if !bytes.Equal(again, p) {
		t.Fatalf("%s: re-encoding is not a fixpoint:\n first %x\nsecond %x", m.Name, p, again)
	}
}

func mustReject(t *testing.T, m Message, p []byte, what string, i int) {
	t.Helper()
	if _, err := bounded(t, m, p); err == nil {
		t.Errorf("%s: %s %d accepted", m.Name, what, i)
	}
}

// bounded decodes p, failing the test if the decoder allocates past
// allocBound (a panic fails it on its own).
func bounded(t *testing.T, m Message, p []byte) ([]byte, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := m.Recode(p)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound {
		t.Errorf("%s: decoding %d corrupt bytes allocated %d bytes", m.Name, len(p), grew)
	}
	return out, err
}
