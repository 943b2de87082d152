package persist

import (
	"fmt"
	"io"

	"dyndens/internal/graph"
	"dyndens/internal/stream"
)

// Frame payload codecs: the WAL logs input-stream units, so each frame kind
// mirrors one source type — a document (time + entity set), a source batch
// (decay flag + updates), or a rescaled-decay threshold unit (scale +
// cancellations).

func encodeDoc(e *encoder, d stream.Document) {
	e.i64(d.Time)
	e.set(d.Entities)
}

func decodeDoc(payload []byte) (stream.Document, error) {
	d := decoder{b: payload}
	doc := stream.Document{Time: d.i64(), Entities: d.set()}
	if err := d.done(); err != nil {
		return stream.Document{}, err
	}
	return doc, nil
}

func encodeUpdates(e *encoder, updates []stream.Update) {
	e.u32(uint32(len(updates)))
	for _, u := range updates {
		e.u32(uint32(u.A))
		e.u32(uint32(u.B))
		e.f64(u.Delta)
	}
}

func (d *decoder) updates() []stream.Update {
	n := d.count(16)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]stream.Update, n)
	for i := range out {
		out[i] = stream.Update{A: graph.Vertex(d.u32()), B: graph.Vertex(d.u32()), Delta: d.f64()}
	}
	return out
}

func encodeBatch(e *encoder, b stream.Batch) uint8 {
	if b.Threshold != nil {
		e.f64(b.Threshold.Scale)
		encodeUpdates(e, b.Updates)
		return frameThreshold
	}
	var flags uint8
	if b.Decay {
		flags = 1
	}
	e.u8(flags)
	encodeUpdates(e, b.Updates)
	return frameBatch
}

func decodeBatch(kind uint8, payload []byte) (stream.Batch, error) {
	d := decoder{b: payload}
	var b stream.Batch
	switch kind {
	case frameBatch:
		flags := d.u8()
		b.Updates = d.updates()
		b.Decay = flags&1 != 0
	case frameThreshold:
		b.Threshold = &stream.ThresholdUpdate{Scale: d.f64()}
		b.Updates = d.updates()
		b.Decay = true
	default:
		return stream.Batch{}, fmt.Errorf("persist: frame kind %d is not a batch", kind)
	}
	if err := d.done(); err != nil {
		return stream.Batch{}, err
	}
	return b, nil
}

// docChain is the recovery-transparent document source: replayed WAL frames
// first, then the live source with the durable prefix skipped, logging every
// new document as it is handed out. The consumer cannot tell recovery from a
// plain run — which is the whole design: recovery IS a normal run.
type docChain struct {
	s       *Store
	frames  []frame
	pos     int
	live    stream.DocumentSource
	skipped bool
	scratch encoder
}

// Next implements stream.DocumentSource.
func (c *docChain) Next() (stream.Document, error) {
	if c.pos < len(c.frames) {
		f := c.frames[c.pos]
		c.pos++
		if f.kind != frameDoc {
			return stream.Document{}, fmt.Errorf("persist: WAL frame %d has kind %d, want document", f.seq, f.kind)
		}
		return decodeDoc(f.payload)
	}
	if !c.skipped {
		c.skipped = true
		skip := c.s.skipUnits()
		for i := uint64(0); i < skip; i++ {
			if _, err := c.live.Next(); err != nil {
				if err == io.EOF {
					return stream.Document{}, fmt.Errorf("persist: input ended after %d documents, but %d are already durable (did the input file shrink?)", i, skip)
				}
				return stream.Document{}, err
			}
		}
	}
	d, err := c.live.Next()
	if err != nil {
		return stream.Document{}, err
	}
	c.scratch.b = c.scratch.b[:0]
	encodeDoc(&c.scratch, d)
	if err := c.s.logFrame(frameDoc, c.scratch.b); err != nil {
		return stream.Document{}, err
	}
	return d, nil
}

// batchChain is docChain for edge-update streams: one WAL frame per NextBatch
// unit, so the batch structure — decay provenance and threshold units
// included — survives the WAL/live seam exactly.
type batchChain struct {
	s       *Store
	frames  []frame
	pos     int
	live    stream.BatchSource
	skipped bool
	scratch encoder
}

// NextBatch implements stream.BatchSource.
func (c *batchChain) NextBatch() (stream.Batch, error) {
	if c.pos < len(c.frames) {
		f := c.frames[c.pos]
		c.pos++
		return decodeBatch(f.kind, f.payload)
	}
	if !c.skipped {
		c.skipped = true
		skip := c.s.skipUnits()
		for i := uint64(0); i < skip; i++ {
			if _, err := c.live.NextBatch(); err != nil {
				if err == io.EOF {
					return stream.Batch{}, fmt.Errorf("persist: input ended after %d batches, but %d are already durable (did the input file shrink?)", i, skip)
				}
				return stream.Batch{}, err
			}
		}
	}
	b, err := c.live.NextBatch()
	if err != nil {
		return stream.Batch{}, err
	}
	c.scratch.b = c.scratch.b[:0]
	kind := encodeBatch(&c.scratch, b)
	if err := c.s.logFrame(kind, c.scratch.b); err != nil {
		return stream.Batch{}, err
	}
	return b, nil
}
