package chunk

import (
	"bytes"
	"testing"
)

// FuzzParse hardens the chunk decoder against arbitrary bytes: it must
// never panic, and any input it accepts must re-encode to a chunk with
// consistent entries. Recovery scans feed untrusted storage bytes
// straight into this parser, so robustness here is a durability property.
func FuzzParse(f *testing.F) {
	// Seed with a valid chunk and interesting corruptions of it.
	b := NewBuilder(0, testGen(77), func() int64 { return 1 })
	b.Add("seed/a.bin", []byte("hello"))
	b.Add("seed/b.bin", bytes.Repeat([]byte{7}, 300))
	_, enc, _ := b.Seal()
	f.Add(enc)
	for _, cut := range []int{0, 10, fixedHeaderSize, len(enc) / 2} {
		f.Add(enc[:cut])
	}
	flip := append([]byte(nil), enc...)
	flip[40] ^= 0xFF
	f.Add(flip)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		// The verify-only entry accepts exactly what Parse accepts.
		if pay, verr := Verify(data); (err == nil) != (verr == nil) || (err == nil && !bytes.Equal(pay, c.Payload())) {
			t.Fatalf("Parse says %v, Verify says %v", err, verr)
		}
		if err != nil {
			return
		}
		// Accepted input: every live entry must be readable and in bounds.
		for i := range c.Header.Entries {
			if c.Header.Deleted.Get(i) {
				continue
			}
			if _, err := c.FileAt(i); err != nil {
				t.Fatalf("accepted chunk has unreadable entry %d: %v", i, err)
			}
		}
	})
}

// FuzzParseID: the printable-ID decoder must never panic and must be the
// inverse of String on anything it accepts.
func FuzzParseID(f *testing.F) {
	f.Add("----------------------")
	f.Add(ID{1, 2, 3}.String())
	f.Add("")
	f.Add("!!!!!!!!!!!!!!!!!!!!!!")
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseID(s)
		if err != nil {
			return
		}
		if id.String() != s {
			t.Fatalf("ParseID(%q) round-trips to %q", s, id.String())
		}
	})
}
