package diesel

import (
	"os"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// changesRuleMarker is the CHANGES.md line the length rule starts at; the
// entries above it are older than the rule.
const changesRuleMarker = "Entries from here on are at most 1 500 characters each"

// TestChangesEntriesAreShort: a CHANGES.md line says what a change did and
// where its detail lives (DESIGN.md, EXPERIMENTS.md, the tests), in at
// most 1 500 characters.
func TestChangesEntriesAreShort(t *testing.T) {
	const maxChars = 1500
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	from := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, changesRuleMarker) })
	if from < 0 {
		t.Fatalf("CHANGES.md has no line starting %q", changesRuleMarker)
	}
	for i, l := range lines[from:] {
		if n := utf8.RuneCountInString(l); n > maxChars {
			t.Errorf("CHANGES.md:%d is %d characters, over %d: %.60s…", from+i+1, n, maxChars, l)
		}
	}
}
