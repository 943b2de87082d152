package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	snapMagic = "DDSNAP1\n"
	// snapVersion is the format encodeSnapshot writes. Version 2 stores the
	// tracker's per-kind record counts where version 1 stored its whole
	// lifecycle log; version 3 drops the set of every vertex that ever carried
	// an edge, which versions 1 and 2 stored with each graph. decodeSnapshot
	// reads all three.
	snapVersion = 3
)

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", seq)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[5:len(name)-5], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeSnapshot serialises a pipeline state into the versioned snapshot
// format: magic, version, fingerprint, payload, CRC-32C trailer over
// everything before it.
func encodeSnapshot(fingerprint string, st *PipelineState) []byte {
	var e encoder
	e.b = append(e.b, snapMagic...)
	e.u32(snapVersion)
	e.str(fingerprint)
	encodePipelineState(&e, st)
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// decodeSnapshot parses and verifies a snapshot file's bytes. Any structural
// damage — bad magic, unknown version, CRC mismatch, truncated payload —
// comes back as an error; a fingerprint mismatch is an error too, because
// restoring a snapshot into a differently configured pipeline would be
// silently wrong.
func decodeSnapshot(raw []byte, fingerprint string) (*PipelineState, error) {
	if len(raw) < len(snapMagic)+8 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("persist: not a snapshot file")
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("persist: snapshot CRC mismatch")
	}
	d := decoder{b: body, off: len(snapMagic)}
	v := d.u32()
	if d.err == nil && (v < 1 || v > snapVersion) {
		return nil, fmt.Errorf("persist: snapshot version %d not supported (want 1 to %d)", v, snapVersion)
	}
	if fp := d.str(); d.err == nil && fp != fingerprint {
		return nil, fmt.Errorf("persist: snapshot fingerprint %q does not match pipeline %q", fp, fingerprint)
	}
	st := decodePipelineState(&d, v)
	if err := d.done(); err != nil {
		return nil, err
	}
	if err := st.sanity(); err != nil {
		return nil, err
	}
	return st, nil
}

// writeSnapshot atomically writes st as dir's snapshot at st.Seq: the bytes
// go to a temp file first and are renamed into place, so a crash mid-write
// never leaves a half snapshot under the snapshot name. With fsync on, the
// file (and the directory entry) are synced before the rename is reported
// durable.
func writeSnapshot(dir, fingerprint string, st *PipelineState, fsync bool) error {
	raw := encodeSnapshot(fingerprint, st)
	final := filepath.Join(dir, snapshotName(st.Seq))
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	if fsync {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// loadLatestSnapshot scans dir for snapshots and returns the newest one that
// decodes and matches the fingerprint, falling back to older snapshots when
// the newest is damaged (a torn rename cannot happen, but a bit-flipped file
// can). Returns (nil, 0, nil) when no usable snapshot exists — recovery then
// replays the WAL from the beginning.
func loadLatestSnapshot(dir, fingerprint string) (*PipelineState, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type snap struct {
		name string
		seq  uint64
	}
	var snaps []snap
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := parseSnapshotName(ent.Name()); ok {
			snaps = append(snaps, snap{name: ent.Name(), seq: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	var lastErr error
	for _, s := range snaps {
		raw, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			lastErr = err
			continue
		}
		st, err := decodeSnapshot(raw, fingerprint)
		if err != nil {
			lastErr = err
			continue
		}
		if st.Seq != s.seq {
			lastErr = fmt.Errorf("persist: %s: snapshot covers seq %d, name says %d", s.name, st.Seq, s.seq)
			continue
		}
		return st, s.seq, nil
	}
	if len(snaps) > 0 && lastErr != nil {
		// Every present snapshot is unusable. A fingerprint mismatch means the
		// directory belongs to a different pipeline — refuse loudly rather than
		// silently starting fresh over foreign data.
		return nil, 0, lastErr
	}
	return nil, 0, nil
}

// pruneSnapshots removes snapshots older than the newest keep snapshots, and
// WAL segments whose entire frame range lies at or below the oldest retained
// snapshot's sequence (a later segment's first sequence bounds each segment's
// range). Pruning is best-effort: failures are ignored, extra files only cost
// disk.
func pruneSnapshots(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var snapSeqs, segSeqs []uint64
	for _, ent := range entries {
		if seq, ok := parseSnapshotName(ent.Name()); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if seq, ok := parseSegmentName(ent.Name()); ok {
			segSeqs = append(segSeqs, seq)
		}
	}
	if len(snapSeqs) <= keep {
		return
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	cutoff := snapSeqs[keep-1] // oldest retained snapshot
	for _, seq := range snapSeqs[keep:] {
		os.Remove(filepath.Join(dir, snapshotName(seq)))
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	for i := 0; i+1 < len(segSeqs); i++ {
		// Segment i spans [segSeqs[i], segSeqs[i+1]); safe to drop only when
		// every frame in it is covered by the oldest retained snapshot.
		if segSeqs[i+1] <= cutoff+1 {
			os.Remove(filepath.Join(dir, segmentName(segSeqs[i])))
		}
	}
}
