package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"dyndens/internal/vset"
)

func TestDocFileSourceParsesDocuments(t *testing.T) {
	input := `# recorded documents
0 3 1 2

5 7 7 9
# trailing comment
10 42
  12	8   9  
9223372036854775800 4 5
9223372036854775807 6 7
`
	src := NewDocReaderSource("docs", strings.NewReader(input))
	got, err := DrainDocs(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Document{
		{Time: 0, Entities: vset.New(1, 2, 3)},
		{Time: 5, Entities: vset.New(7, 9)}, // duplicate mention collapses
		{Time: 10, Entities: vset.New(42)},  // single-entity documents are legal
		{Time: 12, Entities: vset.New(8, 9)},
		{Time: math.MaxInt64 - 7, Entities: vset.New(4, 5)},
		{Time: math.MaxInt64, Entities: vset.New(6, 7)},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d documents, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Time != want[i].Time || !got[i].Entities.Equal(want[i].Entities) {
			t.Errorf("document %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after drain = %v, want io.EOF", err)
	}
	// One past MaxInt64 overflows.
	if _, err := DrainDocs(NewDocReaderSource("docs", strings.NewReader("9223372036854775808 1 2\n"))); err == nil {
		t.Fatal("timestamp MaxInt64+1 accepted")
	}
}

func TestParseDocumentRejects(t *testing.T) {
	bad := []string{
		"5",                      // no entities
		"-1 2 3",                 // negative timestamp
		"x 2 3",                  // non-integer timestamp
		"5 x",                    // non-integer entity
		"5 -1",                   // negative entity
		"5 2147483647",           // the index's '*' sentinel
		"5 99999999999",          // overflows int32
		"5 1 2147483647",         // sentinel among valid mentions
		"99999999999999999999 1", // timestamp overflows int64
	}
	for _, line := range bad {
		if _, _, err := parseDocumentInto([]byte(line), nil); err == nil {
			t.Errorf("parseDocumentInto(%q) accepted, want error", line)
		}
	}
}

func TestDocFileSourceReportsLineOnError(t *testing.T) {
	src := NewDocReaderSource("bad", strings.NewReader("0 1 2\n1 junk\n"))
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := src.Next()
	if err == nil || !strings.Contains(err.Error(), "bad:2") {
		t.Fatalf("error = %v, want one mentioning bad:2", err)
	}
}

func TestWriteDocumentsRoundTrips(t *testing.T) {
	docs := []Document{
		{Time: 0, Entities: vset.New(5, 1, 9)},
		{Time: 17, Entities: vset.New(3)},
	}
	var b strings.Builder
	if n, err := WriteDocuments(&b, docs); err != nil || n != 2 {
		t.Fatalf("WriteDocuments = %d, %v", n, err)
	}
	got, err := DrainDocs(NewDocReaderSource("roundtrip", strings.NewReader(b.String())))
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if got[i].Time != docs[i].Time || !got[i].Entities.Equal(docs[i].Entities) {
			t.Errorf("document %d: got %+v, want %+v", i, got[i], docs[i])
		}
	}
}

// TestDocFileSourceGzip verifies documents share the update sources' gzip
// transparency.
func TestDocFileSourceGzip(t *testing.T) {
	src := NewDocReaderSource("gz", bytes.NewReader(gzipBytes(t, "0 1 2\n3 4 5 6\n")))
	got, err := DrainDocs(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[1].Entities.Equal(vset.New(4, 5, 6)) {
		t.Fatalf("gzip documents = %+v", got)
	}
}

func TestDocSyntheticDeterministicAndPlanted(t *testing.T) {
	cfg := DocSynthConfig{
		BackgroundEntities: 40,
		Stories:            3,
		StorySize:          4,
		Docs:               300,
		Seed:               5,
	}
	g := MustDocSynthetic(cfg)
	a, err := DrainDocs(g)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DrainDocs(MustDocSynthetic(cfg))
	if len(a) != 300 {
		t.Fatalf("generated %d documents, want 300", len(a))
	}

	planted := g.PlantedStories()
	if len(planted) != 3 {
		t.Fatalf("planted %d stories, want 3", len(planted))
	}
	storyRange := func(e vset.Vertex) int {
		if int(e) < cfg.BackgroundEntities {
			return -1
		}
		return (int(e) - cfg.BackgroundEntities) / cfg.StorySize
	}
	for s, p := range planted {
		if p.Entities.Len() != 4 {
			t.Fatalf("story %d has %d entities, want 4", s, p.Entities.Len())
		}
		for _, e := range p.Entities {
			if storyRange(e) != s {
				t.Fatalf("story %d owns out-of-range entity %d", s, e)
			}
		}
		if p.Start < 0 || p.End <= p.Start || p.End > cfg.Docs {
			t.Fatalf("story %d window [%d, %d) outside the stream", s, p.Start, p.End)
		}
	}
	if planted[0].Start != 0 || planted[2].Start <= planted[1].Start {
		t.Fatalf("story windows not staggered: %+v", planted)
	}

	storyDocs := 0
	lastTime := int64(-1)
	for i := range a {
		if a[i].Time != b[i].Time || !a[i].Entities.Equal(b[i].Entities) {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Time <= lastTime {
			t.Fatalf("non-increasing time at document %d", i)
		}
		lastTime = a[i].Time

		// Classify: a document mentioning any story entity must mention
		// entities of exactly one story, only while that story is active.
		touched := -1
		for _, e := range a[i].Entities {
			s := storyRange(e)
			if s == -1 {
				continue
			}
			if touched != -1 && touched != s {
				t.Fatalf("document %d mixes stories %d and %d: %v", i, touched, s, a[i].Entities)
			}
			touched = s
		}
		if touched >= 0 {
			storyDocs++
			p := planted[touched]
			if i < p.Start || i >= p.End {
				t.Fatalf("document %d mentions story %d outside its window [%d, %d)", i, touched, p.Start, p.End)
			}
		}
	}
	if storyDocs == 0 || storyDocs == len(a) {
		t.Fatalf("degenerate story/background mix: %d/%d", storyDocs, len(a))
	}
}

func TestDocSyntheticValidation(t *testing.T) {
	bad := []DocSynthConfig{
		{BackgroundEntities: 1, Docs: 10},
		{BackgroundEntities: 10, Docs: 0},
		{BackgroundEntities: 10, Docs: 10, Stories: 1, StorySize: 1},
		{BackgroundEntities: 10, Docs: 10, Stories: 1, StorySize: 4, StoryMentions: 5},
		{BackgroundEntities: 10, Docs: 10, StoryFraction: 1.5},
		{BackgroundEntities: 10, Docs: 10, StoryLifetime: 2},
		{BackgroundEntities: 2, Docs: 10, BackgroundMentions: 5},
	}
	for i, cfg := range bad {
		if _, err := NewDocSynthetic(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, cfg)
		}
	}
}
