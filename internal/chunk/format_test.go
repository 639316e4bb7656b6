package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTestChunk(t *testing.T, files map[string][]byte) (*Header, []byte) {
	t.Helper()
	b := NewBuilder(DefaultTargetSize, testGen(500), func() int64 { return 42 })
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	// Deterministic order for reproducibility.
	for _, name := range names {
		if _, err := b.Add(name, files[name]); err != nil {
			t.Fatalf("Add(%q): %v", name, err)
		}
	}
	h, enc, err := b.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return h, enc
}

// fileByName returns the content of the file called name.
func fileByName(c *Chunk, name string) ([]byte, error) {
	for i, e := range c.Header.Entries {
		if e.Name == name {
			return c.FileAt(i)
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
}

func TestEncodeParseRoundTrip(t *testing.T) {
	files := map[string][]byte{
		"ds/a/0.jpg": []byte("aaaa"),
		"ds/a/1.jpg": {},
		"ds/b/2.jpg": bytes.Repeat([]byte{0xCD}, 9999),
	}
	h, enc := buildTestChunk(t, files)
	c, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Header.ID != h.ID {
		t.Errorf("ID mismatch")
	}
	if c.Header.UpdatedNS != 42 {
		t.Errorf("UpdatedNS = %d", c.Header.UpdatedNS)
	}
	if len(c.Header.Entries) != len(files) {
		t.Fatalf("entries = %d, want %d", len(c.Header.Entries), len(files))
	}
	for name, want := range files {
		got, err := fileByName(c, name)
		if err != nil {
			t.Errorf("File(%q): %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("File(%q) = %d bytes, want %d", name, len(got), len(want))
		}
	}
}

func TestParseHeaderOnly(t *testing.T) {
	files := map[string][]byte{"x": []byte("data"), "y": []byte("more")}
	_, enc := buildTestChunk(t, files)
	h, hlen, err := ParseHeader(enc)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if len(h.Entries) != 2 {
		t.Errorf("entries = %d", len(h.Entries))
	}
	if hlen <= fixedHeaderSize || hlen >= len(enc) {
		t.Errorf("header length %d out of range", hlen)
	}
	if h.PayloadLen != 8 {
		t.Errorf("PayloadLen = %d, want 8", h.PayloadLen)
	}
}

func TestParseDetectsCorruption(t *testing.T) {
	_, enc := buildTestChunk(t, map[string][]byte{"f": []byte("hello world")})

	t.Run("header flip", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[25] ^= 0xFF // inside the timestamp
		if _, err := Parse(bad); !errors.Is(err, ErrHeaderCRC) {
			t.Errorf("want ErrHeaderCRC, got %v", err)
		}
	})
	t.Run("payload flip", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 0xFF
		if _, err := Parse(bad); !errors.Is(err, ErrPayloadCRC) {
			t.Errorf("want ErrPayloadCRC, got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] = 0
		if _, err := Parse(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[5] = 99
		if _, err := Parse(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("want ErrBadVersion, got %v", err)
		}
	})
	t.Run("torn write", func(t *testing.T) {
		for _, cut := range []int{0, 10, fixedHeaderSize, len(enc) / 2, len(enc) - 1} {
			if _, err := Parse(enc[:cut]); err == nil {
				t.Errorf("cut=%d: torn chunk parsed successfully", cut)
			}
		}
	})
}

func TestDeletionBitmap(t *testing.T) {
	files := map[string][]byte{"a": []byte("1"), "b": []byte("2"), "c": []byte("3")}
	_, enc := buildTestChunk(t, files)
	c, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Find index of "b", mark deleted, re-encode.
	idx := -1
	for i, e := range c.Header.Entries {
		if e.Name == "b" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("entry b missing")
	}
	c.Header.Deleted.Set(idx)
	reenc := encode(c.Header, c.Payload())
	c2, err := Parse(reenc)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if _, err := fileByName(c2, "b"); !errors.Is(err, ErrFileDeleted) {
		t.Errorf("deleted file readable: %v", err)
	}
	if _, err := fileByName(c2, "a"); err != nil {
		t.Errorf("live file unreadable: %v", err)
	}
	if got := c2.Header.Deleted.Count(); got != 1 {
		t.Errorf("Deleted.Count = %d", got)
	}
}

func TestBitmapAlgebra(t *testing.T) {
	f := func(sets []uint16) bool {
		const n = 1024
		bm := NewBitmap(n)
		ref := make(map[int]bool)
		for _, s := range sets {
			i := int(s) % n
			bm.Set(i)
			ref[i] = true
		}
		count := 0
		for i := range n {
			if bm.Get(i) != ref[i] {
				return false
			}
			if ref[i] {
				count++
			}
		}
		return bm.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	bm := NewBitmap(8)
	bm.Set(-1)
	bm.Set(100)
	if bm.Get(-1) || bm.Get(100) {
		t.Error("out-of-range bits should read false")
	}
	if bm.Count() != 0 {
		t.Errorf("Count = %d", bm.Count())
	}
}

func TestBuilderDuplicateName(t *testing.T) {
	b := NewBuilder(0, testGen(1), func() int64 { return 0 })
	if _, err := b.Add("same", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add("same", []byte("y")); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("want ErrDuplicateName, got %v", err)
	}
}

func TestBuilderEmptySeal(t *testing.T) {
	b := NewBuilder(0, testGen(1), func() int64 { return 0 })
	if _, _, err := b.Seal(); !errors.Is(err, ErrEmptyChunk) {
		t.Fatalf("want ErrEmptyChunk, got %v", err)
	}
}

func TestBuilderFullSignal(t *testing.T) {
	b := NewBuilder(100, testGen(1), func() int64 { return 0 })
	full, err := b.Add("a", make([]byte, 60))
	if err != nil || full {
		t.Fatalf("first add: full=%v err=%v", full, err)
	}
	full, err = b.Add("b", make([]byte, 60))
	if err != nil || !full {
		t.Fatalf("second add should report full: full=%v err=%v", full, err)
	}
	if !b.Full() {
		t.Error("Full() disagrees with Add return")
	}
}

func TestBuilderResetsAfterSeal(t *testing.T) {
	b := NewBuilder(0, testGen(1), func() int64 { return 7 })
	b.Add("a", []byte("1"))
	h1, _, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if b.Count() != 0 || b.Len() != 0 {
		t.Error("builder not reset after Seal")
	}
	// Name reusable in the next chunk.
	if _, err := b.Add("a", []byte("2")); err != nil {
		t.Fatalf("name should be reusable after Seal: %v", err)
	}
	h2, _, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if h1.ID == h2.ID {
		t.Error("sequential chunks share an ID")
	}
	if !h1.ID.Less(h2.ID) {
		t.Error("chunk IDs not increasing across seals")
	}
}

// TestChunkRoundTripQuick packs random file sets and verifies every file
// reads back intact through a full encode/parse cycle.
func TestChunkRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := range 50 {
		n := 1 + rng.Intn(40)
		files := make(map[string][]byte, n)
		b := NewBuilder(1<<30, testGen(uint32(round+1)), func() int64 { return int64(round) })
		for i := range n {
			name := fmt.Sprintf("r%d/f%04d", round, i)
			data := make([]byte, rng.Intn(2048))
			rng.Read(data)
			files[name] = data
			if _, err := b.Add(name, data); err != nil {
				t.Fatal(err)
			}
		}
		_, enc, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Parse(enc)
		if err != nil {
			t.Fatalf("round %d: Parse: %v", round, err)
		}
		for name, want := range files {
			got, err := fileByName(c, name)
			if err != nil {
				t.Fatalf("round %d File(%q): %v", round, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d File(%q): content mismatch", round, name)
			}
		}
	}
}

func TestFileAtBounds(t *testing.T) {
	_, enc := buildTestChunk(t, map[string][]byte{"only": []byte("data")})
	c, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FileAt(-1); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("FileAt(-1): %v", err)
	}
	if _, err := c.FileAt(1); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("FileAt(1): %v", err)
	}
	if _, err := fileByName(c, "missing"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("File(missing): %v", err)
	}
}

// twinBuilders returns two builders that stamp identical IDs and times, so
// what they seal from the same files must be byte-identical.
func twinBuilders(target int) (a, b *Builder) {
	now := func() int64 { return 99 }
	return NewBuilder(target, testGen(9), now), NewBuilder(target, testGen(9), now)
}

// TestSealPartsMatchesSeal: over several chunks through the same two
// builders, head+payload from SealParts is byte for byte what Seal
// returns, the parts alias the builder's reused buffer (no chunk-sized
// allocation per seal), and they stay intact until the next Add.
func TestSealPartsMatchesSeal(t *testing.T) {
	whole, parts := twinBuilders(4096)
	rng := rand.New(rand.NewSource(3))
	var buf0 *byte
	for round := range 20 {
		for i := 0; ; i++ {
			name := fmt.Sprintf("r%02d/f%03d", round, i)
			data := make([]byte, rng.Intn(700))
			rng.Read(data)
			fullW, err := whole.Add(name, data)
			if err != nil {
				t.Fatal(err)
			}
			fullP, err := parts.Add(name, data)
			if err != nil {
				t.Fatal(err)
			}
			if fullW != fullP {
				t.Fatal("twin builders disagree on Full")
			}
			if fullW {
				break
			}
		}
		_, enc, err := whole.Seal()
		if err != nil {
			t.Fatal(err)
		}
		head, payload, err := parts.SealParts()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(bytes.Clone(head), payload...), enc) {
			t.Fatalf("round %d: head+payload differs from the contiguous encoding", round)
		}
		if parts.Count() != 0 || parts.Len() != 0 {
			t.Fatal("builder not reset after SealParts")
		}
		if got, err := Verify(enc); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round %d: Verify = %d bytes, %v; want the sealed payload", round, len(got), err)
		}
		if round == 0 {
			buf0 = &payload[0]
		} else if &payload[0] != buf0 {
			t.Fatalf("round %d: the payload moved: the builder did not reuse its buffer", round)
		}
	}
	if _, _, err := parts.SealParts(); !errors.Is(err, ErrEmptyChunk) {
		t.Errorf("SealParts on an empty builder: %v, want ErrEmptyChunk", err)
	}
}

// TestBuilderBuffer: no buffer before the first Add; one allocation sized
// for a whole chunk afterwards, however large the target claims to be; a
// buffer a large file has blown up is not kept.
func TestBuilderBuffer(t *testing.T) {
	b := NewBuilder(1000, testGen(1), func() int64 { return 0 })
	if b.payload != nil {
		t.Error("a builder that has added nothing holds a buffer")
	}
	b.Add("a", make([]byte, 10))
	if got := cap(b.payload); got != 1250 {
		t.Errorf("first Add allocated %d bytes, want target + a quarter = 1250", got)
	}
	for i := range 100 { // 990 more bytes: just under the target
		b.Add(fmt.Sprint(i), make([]byte, 9))
	}
	if full, _ := b.Add("last", make([]byte, 200)); !full || cap(b.payload) != 1250 {
		t.Errorf("a chunk of ordinary files regrew the buffer to %d", cap(b.payload))
	}
	if _, _, err := b.SealParts(); err != nil {
		t.Fatal(err)
	}
	if cap(b.payload) != 1250 {
		t.Error("sealing dropped an ordinary buffer")
	}
	b.Add("huge", make([]byte, 10_000))
	if _, _, err := b.SealParts(); err != nil {
		t.Fatal(err)
	}
	if b.payload != nil {
		t.Errorf("a %d-byte buffer outlived the large file that grew it", cap(b.payload))
	}
	never := NewBuilder(1<<40, testGen(1), func() int64 { return 0 })
	never.Add("a", []byte("x"))
	if got := cap(never.payload); got != maxPresize {
		t.Errorf("a never-full builder preallocated %d bytes, want %d", got, maxPresize)
	}
}

// TestVerifyAgreesWithParse: on a valid chunk and on every single-bit
// corruption and truncation of it, Verify fails exactly when Parse fails,
// with the same error, and otherwise returns the payload Parse exposes —
// without allocating.
func TestVerifyAgreesWithParse(t *testing.T) {
	_, enc := buildTestChunk(t, map[string][]byte{
		"ds/a/0.jpg": []byte("aaaa"), "ds/a/1.jpg": {}, "ds/b/2.jpg": bytes.Repeat([]byte{0xCD}, 600),
	})
	check := func(what string, b []byte) {
		c, perr := Parse(b)
		got, verr := Verify(b)
		if (perr == nil) != (verr == nil) || (perr != nil && perr.Error() != verr.Error()) {
			t.Fatalf("%s: Parse says %v, Verify says %v", what, perr, verr)
		}
		if perr == nil && !bytes.Equal(got, c.Payload()) {
			t.Fatalf("%s: Verify returned a different payload", what)
		}
	}
	check("intact", enc)
	for i := range enc {
		for bit := range 8 {
			mut := bytes.Clone(enc)
			mut[i] ^= 1 << bit
			check(fmt.Sprintf("bit %d of byte %d flipped", bit, i), mut)
		}
		check(fmt.Sprintf("cut at %d", i), enc[:i])
	}
	if n := testing.AllocsPerRun(100, func() { Verify(enc) }); n != 0 {
		t.Errorf("Verify allocates %v times per call, want 0", n)
	}
}
