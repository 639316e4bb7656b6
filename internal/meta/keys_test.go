package meta

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"":                "",
		"/":               "",
		"a":               "a",
		"/a/b/":           "a/b",
		"a//b":            "a/b",
		"./a/./b":         "a/b",
		"train/n01/x.jpg": "train/n01/x.jpg",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"a/b/c.jpg", "a/b", "c.jpg"},
		{"c.jpg", "", "c.jpg"},
		{"", "", ""},
		{"/a/", "", "a"},
		{"a/b/", "a", "b"},
	}
	for _, tc := range cases {
		dir, base := SplitPath(tc.in)
		if dir != tc.dir || base != tc.base {
			t.Errorf("SplitPath(%q) = %q,%q want %q,%q", tc.in, dir, base, tc.dir, tc.base)
		}
	}
}

// dirHashString is dirHash as the string the key builders embed.
func dirHashString(dir string) string {
	h := dirHash(dir)
	return string(h[:])
}

func TestDirHashStable(t *testing.T) {
	// Pinned values guard against accidental hash-function changes, which
	// would orphan all existing KV records.
	if got := dirHashString(""); got != dirHashString("/") {
		t.Error("hash of root differs between spellings")
	}
	if dirHashString("a/b") == dirHashString("a/c") {
		t.Error("distinct dirs hash equal")
	}
	if len(dirHashString("x")) != 16 {
		t.Errorf("hash length = %d", len(dirHashString("x")))
	}
}

func TestKeySchemaRoundTrip(t *testing.T) {
	ds := "imagenet"
	fk := FileKey(ds, "train/n01/x.jpg")
	if !strings.HasPrefix(fk, FileDatasetPrefix(ds)) || !strings.HasSuffix(fk, "|x.jpg") {
		t.Errorf("file key %q not under its dataset-wide scan prefix, or not ending in its basename", fk)
	}
	if strings.HasPrefix(FileKey(ds+"x", "a"), FileDatasetPrefix(ds)) {
		t.Error("a dataset-wide scan prefix covers a dataset whose name extends it")
	}
}

func TestKeyNamespacesDisjoint(t *testing.T) {
	// Datasets must not collide.
	if FileKey("ds1", "x") == FileKey("ds2", "x") {
		t.Error("dataset namespaces collide")
	}
	if ChunkScanPrefix("ds1") == ChunkScanPrefix("ds2") {
		t.Error("chunk prefixes collide")
	}
}

func TestFileKeyDeterministicQuick(t *testing.T) {
	f := func(ds, path string) bool {
		return FileKey(ds, path) == FileKey(ds, path) &&
			strings.HasPrefix(FileKey(ds, path), "f|"+ds+"|")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCleanPathIdempotentQuick(t *testing.T) {
	f := func(p string) bool {
		c := CleanPath(p)
		return CleanPath(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitJoinQuick(t *testing.T) {
	f := func(p string) bool {
		dir, base := SplitPath(p)
		if base == "" {
			return CleanPath(p) == ""
		}
		joined := base
		if dir != "" {
			joined = dir + "/" + base
		}
		return joined == CleanPath(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The key builders as they were before they were made one allocation each:
// hash/fnv, "%016x" and plain concatenation. Keys are persisted, so the new
// builders must agree with these byte for byte — one differing digit and
// every record written before the change is unreachable.
func oldDirHash(dir string) string {
	h := fnv.New64a()
	h.Write([]byte(CleanPath(dir)))
	return fmt.Sprintf("%016x", h.Sum64())
}

func oldFileKey(dataset, path string) string {
	dir, base := SplitPath(path)
	return "f|" + dataset + "|" + oldDirHash(dir) + "|" + base
}

func TestKeysMatchTheOldBuilders(t *testing.T) {
	check := func(dataset, path string) {
		t.Helper()
		for _, c := range [][2]string{
			{dirHashString(path), oldDirHash(path)},
			{FileKey(dataset, path), oldFileKey(dataset, path)},
		} {
			if c[0] != c[1] {
				t.Fatalf("dataset %q path %q: key %q, the old builder made %q", dataset, path, c[0], c[1])
			}
		}
	}
	for _, p := range []string{"", "/", ".", "a", "a/b", "/a//b/./c/", "train/n01440764/img_0001.jpg",
		"cls007/img000123.jpg", "ünï/cødé/文件.jpg", "a b/c\td", strings.Repeat("deep/", 200) + "x"} {
		check("imagenet", p)
	}
	// Fuzzed datasets and paths: random bytes (slashes and dots made
	// likely, so unclean paths are covered), every hash nibble exercised.
	rng := rand.New(rand.NewSource(1))
	const alphabet = "//..abcXYZ019_- \x00\xff|é"
	for range 20000 {
		ds := make([]byte, rng.Intn(12))
		for i := range ds {
			ds[i] = alphabet[rng.Intn(len(alphabet))]
		}
		p := make([]byte, rng.Intn(64))
		for i := range p {
			if rng.Intn(4) == 0 {
				p[i] = byte(rng.Intn(256))
			} else {
				p[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		check(string(ds), string(p))
	}
}

// TestKeyBuildersAllocateOnce: a key costs the allocation of the key.
func TestKeyBuildersAllocateOnce(t *testing.T) {
	ds, path := "imagenet", "train/n01440764/img_0001.jpg"
	dir, _ := SplitPath(path)
	var sink string
	for name, f := range map[string]func(){
		"FileKey": func() { sink = FileKey(ds, path) },
		"DirHash": func() { sink = dirHashString(dir) },
	} {
		if n := testing.AllocsPerRun(200, f); n != 1 {
			t.Errorf("%s: %v allocations, want 1", name, n)
		}
	}
	_ = sink
}
