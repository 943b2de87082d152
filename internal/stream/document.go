package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"dyndens/internal/vset"
)

// Document is one item of the input stream the paper's system actually
// ingests (Section 2): a timestamped set of entity mentions extracted from a
// news article, blog post, or tweet. The co-occurrence Aggregator turns the
// entity pairs of each document into edge-weight updates for the engine.
type Document struct {
	// Time is the document's timestamp in abstract, non-negative time units
	// (the Aggregator's epoch length is expressed in the same units). A
	// document stream must be time-ordered: real feeds arrive in order, and
	// the fading-weight schedule is only well defined over monotone time.
	Time int64
	// Entities is the deduplicated set of entities mentioned by the document.
	// Documents with fewer than two entities contribute no co-occurrences but
	// are legal (they still advance time).
	Entities vset.Set
}

// DocumentSource produces a stream of documents. Like BatchSource it is
// pull-based and single-consumer; Next returns io.EOF when the stream is
// exhausted. A source may reuse the returned Document's Entities backing
// array: the set is only guaranteed valid until the next Next call, so a
// consumer that retains documents must Clone the set (DrainDocs does).
type DocumentSource interface {
	Next() (Document, error)
}

// SliceDocSource replays a fixed slice of documents; the trivial source for
// tests and in-memory callers.
type SliceDocSource struct {
	docs []Document
	pos  int
}

// NewSliceDocSource returns a source that yields the given documents in order.
func NewSliceDocSource(docs []Document) *SliceDocSource {
	return &SliceDocSource{docs: docs}
}

// Next implements DocumentSource.
func (s *SliceDocSource) Next() (Document, error) {
	if s.pos >= len(s.docs) {
		return Document{}, io.EOF
	}
	d := s.docs[s.pos]
	s.pos++
	return d, nil
}

// DrainDocs reads every remaining document from src into a slice; errors
// other than io.EOF are returned with the documents read so far. Entity sets
// are cloned, so the result stays valid however the source reuses buffers.
func DrainDocs(src DocumentSource) ([]Document, error) {
	var out []Document
	for {
		d, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		d.Entities = d.Entities.Clone()
		out = append(out, d)
	}
}

// DocFileSource reads documents from a text stream in the format
// `time e1 e2 ... ek`, one document per line: a non-negative integer
// timestamp followed by one or more entity identifiers. Blank lines and '#'
// comments are skipped and gzip input is decompressed transparently, exactly
// like FileSource. This is the recorded-document format written by
// `dyndens stories gen-docs`.
type DocFileSource struct {
	ls   *lineScanner
	ents []vset.Vertex // reusable mention scratch; returned Entities alias it
}

// NewDocReaderSource wraps an io.Reader in a DocFileSource. name is used in
// error messages only.
func NewDocReaderSource(name string, r io.Reader) *DocFileSource {
	return &DocFileSource{ls: newLineScanner(name, r)}
}

// OpenDocFile opens path as a DocFileSource. The caller must Close it.
func OpenDocFile(path string) (*DocFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := NewDocReaderSource(path, f)
	s.ls.closer = f
	return s, nil
}

// rawDocLiner is an optional DocumentSource capability: line-oriented sources
// expose their raw unparsed document lines so the pipelined front-end's
// expansion workers can parse off the reader goroutine. The returned slice is
// valid only until the next call; line is the 1-based line number for error
// messages, prefixed with sourceName.
type rawDocLiner interface {
	rawDocLine() (text []byte, line int, err error)
	sourceName() string
}

// Next implements DocumentSource. The returned Document's entity set reuses
// a scratch buffer owned by the source — it is valid until the next Next call
// (the DocumentSource contract), which makes steady-state document reads
// allocation-free: no per-line string, no per-document mention slice.
func (s *DocFileSource) Next() (Document, error) {
	text, line, err := s.ls.nextLineBytes()
	if err != nil {
		return Document{}, err
	}
	ts, ents, err := parseDocumentInto(text, s.ents[:0])
	if err != nil {
		return Document{}, fmt.Errorf("%s:%d: %w", s.ls.name, line, err)
	}
	s.ents = ents
	return Document{Time: ts, Entities: ents}, nil
}

// rawDocLine exposes the source's next raw document line (trimmed, valid
// until the next call) so the pipelined front-end can move parsing onto
// expansion workers; see rawDocLiner.
func (s *DocFileSource) rawDocLine() ([]byte, int, error) { return s.ls.nextLineBytes() }

// sourceName implements rawDocLiner.
func (s *DocFileSource) sourceName() string { return s.ls.name }

// Close releases the underlying file and gzip reader, if any.
func (s *DocFileSource) Close() error { return s.ls.close() }

// parseDocumentInto parses one `time e1 e2 ... ek` line from raw bytes into
// the ents scratch buffer. The timestamp must be a non-negative integer (the
// fading schedule needs a well-founded epoch zero), each entity must be a
// valid vertex in [0, MaxInt32), and duplicate mentions collapse into the
// set. It returns the timestamp and the sorted, deduplicated entity set
// (which aliases ents' backing array unless it grew). It performs no
// allocations in steady state: fields are sliced in place and the numeric
// parsers are manual — strconv would escape a string copy per field.
func parseDocumentInto(text []byte, ents []vset.Vertex) (int64, vset.Set, error) {
	var ts int64
	nfields := 0
	for i := 0; i < len(text); {
		for i < len(text) && asciiSpace(text[i]) {
			i++
		}
		if i >= len(text) {
			break
		}
		j := i
		for j < len(text) && !asciiSpace(text[j]) {
			j++
		}
		field := text[i:j]
		i = j
		if nfields == 0 {
			n, ok := parseUintBytes(field)
			if !ok {
				if len(field) > 1 && field[0] == '-' {
					if _, neg := parseUintBytes(field[1:]); neg {
						return 0, nil, fmt.Errorf("stream: negative timestamp %q", field)
					}
				}
				return 0, nil, fmt.Errorf("stream: bad timestamp %q", field)
			}
			ts = n
		} else {
			n, ok := parseUintBytes(field)
			if !ok || n >= math.MaxInt32 {
				return 0, nil, fmt.Errorf("stream: bad vertex %q (want integer in [0, %d))", field, math.MaxInt32)
			}
			ents = append(ents, vset.Vertex(n))
		}
		nfields++
	}
	if nfields < 2 {
		return 0, nil, fmt.Errorf("stream: want `time e1 [e2 ...]`, got %d fields in %q", nfields, text)
	}
	slices.Sort(ents)
	w := 1
	for i := 1; i < len(ents); i++ {
		if ents[i] != ents[w-1] {
			ents[w] = ents[i]
			w++
		}
	}
	return ts, vset.Set(ents[:w]), nil
}

// asciiSpace matches the whitespace that separates fields on a scanned line
// (the scanner has already stripped the newline and outer space).
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// parseUintBytes parses an unsigned decimal integer from b without allocating,
// reporting false on empty input, non-digits, or int64 overflow.
func parseUintBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > (math.MaxInt64-9)/10 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// WriteDocuments writes documents to w in the format DocFileSource reads,
// returning the number of documents written.
func WriteDocuments(w io.Writer, docs []Document) (int, error) {
	bw := bufio.NewWriter(w)
	for i, d := range docs {
		if _, err := fmt.Fprintf(bw, "%d", d.Time); err != nil {
			return i, err
		}
		for _, e := range d.Entities {
			if _, err := fmt.Fprintf(bw, " %d", e); err != nil {
				return i, err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return i, err
		}
	}
	return len(docs), bw.Flush()
}
