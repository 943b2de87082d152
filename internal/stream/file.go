package stream

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"dyndens/internal/graph"
)

// lineScanner is the shared line-oriented reader behind the recorded-stream
// sources (FileSource for `a b delta` updates, DocFileSource for documents).
// It skips blank lines and '#' comments, counts lines for error messages, and
// transparently decompresses gzip input: the first two bytes are sniffed for
// the gzip magic number, so `dyndens run -input updates.gz` needs no flag and
// no filename convention. The sniff is lazy — it happens on the first line
// read — which keeps the constructors infallible.
type lineScanner struct {
	name   string
	raw    io.Reader
	sc     *bufio.Scanner
	gz     *gzip.Reader
	closer io.Closer
	line   int
}

// gzip magic number (RFC 1952).
const gzipMagic0, gzipMagic1 = 0x1f, 0x8b

func newLineScanner(name string, r io.Reader) *lineScanner {
	return &lineScanner{name: name, raw: r}
}

// init sniffs the input for gzip framing and builds the scanner. It is called
// on the first nextLine; a malformed gzip header fails here.
func (ls *lineScanner) init() error {
	br := bufio.NewReader(ls.raw)
	var src io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == gzipMagic0 && magic[1] == gzipMagic1 {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("%s: gzip: %w", ls.name, err)
		}
		ls.gz = zr
		src = zr
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	ls.sc = sc
	return nil
}

// nextLineBytes returns the next non-blank, non-comment line (trimmed) and
// its 1-based line number. The returned slice aliases the scanner's buffer
// and is only valid until the next call — it is the allocation-free core the
// document hot path parses from directly. It returns io.EOF at end of input;
// read errors — including corrupt gzip payloads — are wrapped with the
// source name.
func (ls *lineScanner) nextLineBytes() ([]byte, int, error) {
	if ls.sc == nil {
		if err := ls.init(); err != nil {
			return nil, 0, err
		}
	}
	for ls.sc.Scan() {
		ls.line++
		text := bytes.TrimSpace(ls.sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		return text, ls.line, nil
	}
	if err := ls.sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", ls.name, err)
	}
	return nil, 0, io.EOF
}

// nextLine is nextLineBytes with an owned string result, for the update-file
// path where per-line parsing already allocates.
func (ls *lineScanner) nextLine() (string, int, error) {
	b, line, err := ls.nextLineBytes()
	if err != nil {
		return "", 0, err
	}
	return string(b), line, nil
}

// close releases the gzip reader (verifying its checksum trailer was intact
// as far as it was read) and the underlying file, if any.
func (ls *lineScanner) close() error {
	var err error
	if ls.gz != nil {
		err = ls.gz.Close()
	}
	if ls.closer != nil {
		if cerr := ls.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// BatchMarker is the batch-boundary line of the recorded-stream format: a
// line consisting of exactly "%%" ends the current batch. Markers let a
// recorded stream carry its coalescible structure (an epoch burst per batch).
// Markers only group updates: they never add, drop or reorder one, so marked
// and unmarked files carry the same updates in the same order.
const BatchMarker = "%%"

// FileSource reads edge-weight updates from a text stream in the edge-list
// format `a b delta`, one update per line: two vertex identifiers (integers)
// and a weight delta (float), separated by whitespace. Blank lines and lines
// starting with '#' are skipped, so generated files can carry a provenance
// header, and gzip-compressed input is decompressed transparently (sniffed by
// magic number, not filename). This is the recorded-stream format written by
// `dyndens gen`.
//
// FileSource is a BatchSource: NextBatch groups updates at BatchMarker lines
// ("%%"), with consecutive markers yielding legal empty batches. A file
// without markers is one single batch unless SetMaxBatch caps it.
type FileSource struct {
	ls       *lineScanner
	buf      []Update // NextBatch staging, reused across batches
	maxBatch int      // NextBatch size cap; 0 = unbounded (see SetMaxBatch)
	capSplit bool     // last batch ended at the cap, not at a marker
}

// SetMaxBatch bounds the size of the batches NextBatch yields: a run of more
// than n updates without a marker is split into n-sized pieces (each its own
// logical tick). It is the memory guard for batch-replaying recorded streams
// — a marker-less file is otherwise one whole-file batch buffered in memory.
// n ≤ 0 removes the cap.
func (s *FileSource) SetMaxBatch(n int) {
	if n < 0 {
		n = 0
	}
	s.maxBatch = n
}

// NewReaderSource wraps an io.Reader in a FileSource. name is used in error
// messages only.
func NewReaderSource(name string, r io.Reader) *FileSource {
	return &FileSource{ls: newLineScanner(name, r)}
}

// OpenFile opens path as a FileSource. The caller must Close it.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := NewReaderSource(path, f)
	s.ls.closer = f
	return s, nil
}

// NextBatch implements BatchSource: updates up to the next BatchMarker line,
// the SetMaxBatch cap, or end of input form one batch. The returned slice is
// reused by the next call.
func (s *FileSource) NextBatch() (Batch, error) {
	s.buf = s.buf[:0]
	// A marker immediately after a cap split closes the batch that was
	// already returned, so it is absorbed rather than reported as a spurious
	// empty batch (a SECOND consecutive marker is a genuine empty batch).
	absorbMarker := s.capSplit
	s.capSplit = false
	consumed := false
	for {
		if s.maxBatch > 0 && len(s.buf) == s.maxBatch {
			s.capSplit = true
			return Batch{Updates: s.buf}, nil
		}
		text, line, err := s.ls.nextLine()
		if err != nil {
			if errors.Is(err, io.EOF) && consumed {
				return Batch{Updates: s.buf}, nil
			}
			return Batch{}, err
		}
		if text == BatchMarker {
			if absorbMarker && len(s.buf) == 0 {
				// Belongs to the previous (cap-split) batch: absorbing it
				// must not count as consuming input for THIS batch, or EOF
				// right after it would yield a phantom empty batch.
				absorbMarker = false
				continue
			}
			return Batch{Updates: s.buf}, nil
		}
		consumed = true
		absorbMarker = false
		u, perr := ParseUpdate(text)
		if perr != nil {
			return Batch{}, fmt.Errorf("%s:%d: %w", s.ls.name, line, perr)
		}
		s.buf = append(s.buf, u)
	}
}

// Close releases the underlying file and gzip reader, if any.
func (s *FileSource) Close() error { return s.ls.close() }

// ParseUpdate parses one `a b delta` line. Vertices must be in [0, MaxInt32)
// — the upper bound is exclusive because MaxInt32 is the index's reserved '*'
// sentinel (index.Star) — and the delta must be a finite float: a NaN or ±Inf
// weight would silently poison every score it touches downstream.
func ParseUpdate(text string) (Update, error) {
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return Update{}, fmt.Errorf("stream: want 3 fields `a b delta`, got %d in %q", len(fields), text)
	}
	a, err := parseVertex(fields[0])
	if err != nil {
		return Update{}, err
	}
	b, err := parseVertex(fields[1])
	if err != nil {
		return Update{}, err
	}
	delta, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Update{}, fmt.Errorf("stream: bad delta %q: %w", fields[2], err)
	}
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return Update{}, fmt.Errorf("stream: non-finite delta %q", fields[2])
	}
	return Update{A: a, B: b, Delta: delta}, nil
}

func parseVertex(field string) (graph.Vertex, error) {
	v, err := strconv.ParseInt(field, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("stream: bad vertex %q: %w", field, err)
	}
	if v < 0 || v >= math.MaxInt32 {
		return 0, fmt.Errorf("stream: vertex %q outside [0, %d)", field, math.MaxInt32)
	}
	return graph.Vertex(v), nil
}

// WriteUpdates writes updates to w in the edge-list format FileSource reads,
// returning the number of updates written.
func WriteUpdates(w io.Writer, updates []Update) (int, error) {
	bw := bufio.NewWriter(w)
	for i, u := range updates {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", u.A, u.B, u.Delta); err != nil {
			return i, err
		}
	}
	return len(updates), bw.Flush()
}
