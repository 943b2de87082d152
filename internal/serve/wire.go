package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// The read endpoints and the /events frames are rendered by hand: an append
// encoder writes JSON straight from the immutable Entry and Snapshot into a
// reused buffer — no reflection, no intermediate wire structs, no subgraph key
// strings. The bytes are exactly what encoding/json wrote for the wire structs
// this replaced: indented by two spaces with a trailing newline for the read
// responses (json.Encoder with SetIndent("", "  ")), compact for SSE data
// (json.Marshal). wire_test.go keeps those structs as the reference and
// compares every response and frame of a planted story stream against them.

// wire appends JSON of a fixed, known shape: object keys are constants that
// need no escaping, and values are integers, booleans, finite floats and
// subgraph keys, which are digits and commas.
type wire struct {
	b      []byte
	indent bool // two-space indentation, one element per line
	depth  int  // open containers
	empty  bool // the innermost open container has no element yet

	// unsupported is the first non-finite float the response held, in
	// strconv 'g' form, or "" if there was none. JSON has no token for it;
	// writeWire answers 500 as writeJSON does when encoding/json refuses one.
	unsupported string
}

// maxPooledWire caps the buffers the pool keeps, so that one response for a
// very large story does not pin its buffer for the life of the process.
const maxPooledWire = 64 << 10

var wirePool = sync.Pool{New: func() any { return new(wire) }}

// getWire returns an empty indenting encoder from the pool; putWire returns it.
func getWire() *wire {
	w := wirePool.Get().(*wire)
	w.reset(true)
	return w
}

func putWire(w *wire) {
	if cap(w.b) <= maxPooledWire {
		wirePool.Put(w)
	}
}

// reset empties the encoder, keeping its buffer.
func (w *wire) reset(indent bool) {
	*w = wire{b: w.b[:0], indent: indent}
}

func (w *wire) newline() {
	if !w.indent {
		return
	}
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, "  "...)
	}
}

// elem starts the next element of the innermost open container.
func (w *wire) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

func (w *wire) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container; an empty one stays on one line ([]),
// as encoding/json writes it.
func (w *wire) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// field starts the next member of the innermost open object.
func (w *wire) field(name string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *wire) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *wire) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

func (w *wire) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *wire) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.unsupported == "" {
			w.unsupported = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return
	}
	w.b = appendFloat(w.b, f)
}

// vertices appends a set as a list of numbers.
func (w *wire) vertices(s vset.Set) {
	w.open('[')
	for _, v := range s {
		w.elem()
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
	w.close(']')
}

// key appends a set as its canonical key string ("1,2,10", as vset.Set.Key
// renders it) without building the string.
func (w *wire) key(s vset.Set) {
	w.b = append(w.b, '"')
	for i, v := range s {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
	w.b = append(w.b, '"')
}

// appendFloat appends a finite float64 as encoding/json writes it: the
// shortest decimal that round-trips, in 'f' form except below 1e-6 and from
// 1e21 on, where it is 'e' form with a two-digit negative exponent shortened
// (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// story appends one entry as the object clients read. With detail it lists
// the subgraphs, a member left out when there are none (fading stories).
func (w *wire) story(e *Entry, detail bool) {
	w.open('{')
	w.field("id")
	w.uint(uint64(e.ID))
	w.field("density")
	w.float(e.Density)
	w.field("entities")
	w.vertices(e.Entities)
	if detail && len(e.Subgraphs) > 0 {
		w.field("subgraphs")
		w.open('[')
		for _, sg := range e.Subgraphs {
			w.elem()
			w.open('{')
			w.field("key")
			w.key(sg.Set)
			w.field("density")
			w.float(sg.Density)
			w.close('}')
		}
		w.close(']')
	}
	w.field("subgraph_count")
	w.int(len(e.Subgraphs))
	w.field("born_seq")
	w.uint(e.BornSeq)
	w.field("last_seq")
	w.uint(e.LastSeq)
	w.field("fading")
	w.bool(e.Fading)
	w.close('}')
}

// top renders the GET /stories/top response: the k highest-ranked stories.
func (w *wire) top(snap *Snapshot, k int) {
	w.open('{')
	w.field("epoch")
	w.uint(snap.Epoch)
	w.field("ranked")
	w.int(len(snap.Ranked))
	w.field("stories")
	w.open('[')
	for _, r := range snap.Top(k) {
		e, _ := snap.Story(r.Story) // every ranked story is in the table
		w.elem()
		w.story(e, false)
	}
	w.close(']')
	w.close('}')
	w.b = append(w.b, '\n')
}

// detail renders the GET /stories/{id} response.
func (w *wire) detail(snap *Snapshot, e *Entry) {
	w.open('{')
	w.field("epoch")
	w.uint(snap.Epoch)
	w.field("story")
	w.story(e, true)
	w.close('}')
	w.b = append(w.b, '\n')
}

// entity renders the GET /entities/{e} response: the stories containing v, in
// the table's ascending ID order. It scans the table, which holds only the
// live and fading stories, so there is no entity index to keep.
func (w *wire) entity(snap *Snapshot, v vset.Vertex) {
	w.open('{')
	w.field("epoch")
	w.uint(snap.Epoch)
	w.field("entity")
	w.int(int(v))
	w.field("stories")
	w.open('[')
	for _, e := range snap.Stories {
		if e.Entities.Contains(v) {
			w.elem()
			w.story(e, false)
		}
	}
	w.close(']')
	w.close('}')
	w.b = append(w.b, '\n')
}

// record renders one lifecycle record as an SSE frame: the kind names the
// event, and the data line is the compact object {seq, kind, story, other
// (left out when 0), entities}. Kind names need no escaping.
func (w *wire) record(rec story.Record) {
	kind := rec.Kind.String()
	w.reset(false)
	w.b = append(w.b, "event: "...)
	w.b = append(w.b, kind...)
	w.b = append(w.b, "\ndata: "...)
	w.open('{')
	w.field("seq")
	w.uint(rec.Seq)
	w.field("kind")
	w.b = append(w.b, '"')
	w.b = append(w.b, kind...)
	w.b = append(w.b, '"')
	w.field("story")
	w.uint(uint64(rec.Story))
	if rec.Other != 0 {
		w.field("other")
		w.uint(uint64(rec.Other))
	}
	w.field("entities")
	w.vertices(rec.Entities)
	w.close('}')
	w.b = append(w.b, "\n\n"...)
}

// jsonContentType is shared by every JSON response, so setting the header
// allocates nothing. Nothing may modify it in place.
var jsonContentType = []string{"application/json"}

// writeWire sends a rendered response in one Write, or answers 500 with the
// error encoding/json gives for a non-finite float if the response held one.
func writeWire(rw http.ResponseWriter, w *wire) {
	if w.unsupported != "" {
		writeJSON(rw, http.StatusInternalServerError, map[string]string{"error": "json: unsupported value: " + w.unsupported})
		return
	}
	rw.Header()["Content-Type"] = jsonContentType
	rw.Write(w.b) // a failed write means the client has gone; there is no one to tell
}
