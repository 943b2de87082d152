package stream

import (
	"strings"
	"testing"
)

// TestDocFileSourceZeroAlloc pins the per-document parse cost of the
// streaming document reader: after warmup (scanner buffer, mention scratch),
// Next performs zero allocations per document — no per-line string, no
// per-document mention slice, no set copy. This is the front-end analogue of
// the engine's zero-alloc Process pin.
func TestDocFileSourceZeroAlloc(t *testing.T) {
	var b strings.Builder
	b.WriteString("# header comment\n")
	for i := 0; i < 1500; i++ {
		b.WriteString("10 3 1 4 1 5 9 2 6\n") // duplicates exercise the dedup path
	}
	src := NewDocReaderSource("alloc", strings.NewReader(b.String()))
	for i := 0; i < 50; i++ { // warm the scanner and scratch buffers
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		d, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.Entities.Len() != 7 {
			t.Fatalf("parsed %d entities, want 7", d.Entities.Len())
		}
	}); allocs != 0 {
		t.Fatalf("DocFileSource.Next allocated %.2f allocs/doc, want 0", allocs)
	}
}
