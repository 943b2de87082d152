package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// nextRefUpdate is FuzzFileSource's reference reader: the next update of ls
// with batch markers skipped, so the stream it reads is the file's updates in
// order with every grouping removed. Blank lines, '#' comments and gzip
// framing are the shared lineScanner's.
func nextRefUpdate(ls *lineScanner) (Update, error) {
	for {
		text, line, err := ls.nextLine()
		if err != nil {
			return Update{}, err
		}
		if text == BatchMarker {
			continue
		}
		u, err := ParseUpdate(text)
		if err != nil {
			return Update{}, fmt.Errorf("%s:%d: %w", ls.name, line, err)
		}
		return u, nil
	}
}

// FuzzFileSource feeds arbitrary bytes through the edge-list parser and
// checks its safety contract: no panics, every accepted update is
// well-formed (finite delta, vertices inside the index's valid range), batch
// markers only group updates (NextBatch yields the reference reader's
// updates in its order), and accepted updates survive a write→parse round
// trip unchanged. The seeds
// cover the interesting classes: valid lines, comments, malformed fields,
// NaN/Inf and out-of-range values, duplicate edges, pathological whitespace,
// and — because the source transparently decompresses input that starts with
// the gzip magic number — compressed payloads, bare magic bytes, and
// truncated or corrupt archives.
func FuzzFileSource(f *testing.F) {
	seeds := []string{
		"1 2 0.5\n2 3 -1.25\n",
		"# comment\n\n10 11 3\n",
		"1 2\n",
		"1 2 3 4\n",
		"a b c\n",
		"1 2 NaN\n",
		"1 2 Inf\n3 4 -Inf\n",
		"1 2 1e309\n",
		"-1 2 0.5\n",
		"2147483647 2 0.5\n",
		"99999999999 2 0.5\n",
		"1 2 0x1p-3\n",
		"1 2 0.5\r\n1 2 0.5\n1 2 -0.5\n",
		"\t 1 \t 2 \t 0.5 \t\n",
		"1 1 0.5\n",
		"0 0 0\n",
		strings.Repeat("7 8 1.5\n", 50),
		"1_0 2 0.5\n",
		"+1 +2 +0.5\n",
		// Batch boundaries: empty batches (leading, consecutive, trailing),
		// a single-pair batch, duplicate pairs within one batch, markers with
		// surrounding whitespace, and marker-like lines that must NOT parse
		// as boundaries or updates.
		"%%\n",
		"%%\n%%\n%%\n",
		"1 2 0.5\n%%\n",
		"%%\n3 4 1.5\n%%\n%%\n5 6 -1\n",
		"1 2 0.5\n1 2 0.5\n1 2 -0.25\n%%\n1 2 1\n",
		" %% \n7 8 1\n",
		"%% trailing garbage\n",
		"%%%%\n",
		"1 2 0.5 %%\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// Gzip-framed seeds: the source sniffs the magic number and decompresses
	// transparently, so the fuzzer must also explore compressed valid input,
	// headers followed by garbage, and truncated archives.
	f.Add(gzipBytes(f, "1 2 0.5\n2 3 -1.25\n"))
	f.Add(gzipBytes(f, "# comment\n\n10 11 3\n"))
	f.Add(gzipBytes(f, "1 2 NaN\n"))
	f.Add(gzipBytes(f, "1 2 0.5\n%%\n3 4 1\n%%\n"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00, 0xde, 0xad, 0xbe, 0xef})
	f.Add(gzipBytes(f, "1 2 0.5\n")[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := newLineScanner("fuzz", strings.NewReader(string(data)))
		var accepted []Update
		cleanEOF := false
		for len(accepted) < 10000 {
			u, err := nextRefUpdate(ref)
			if err != nil {
				// io.EOF ends the stream; any other error must identify the
				// source. Either way the source must not panic.
				cleanEOF = errors.Is(err, io.EOF)
				if !cleanEOF && !strings.Contains(err.Error(), "fuzz") {
					t.Fatalf("error does not identify the source: %v", err)
				}
				break
			}
			if math.IsNaN(u.Delta) || math.IsInf(u.Delta, 0) {
				t.Fatalf("parser accepted non-finite delta: %+v", u)
			}
			if u.A < 0 || u.B < 0 || u.A == math.MaxInt32 || u.B == math.MaxInt32 {
				t.Fatalf("parser accepted vertex outside [0, MaxInt32): %+v", u)
			}
			accepted = append(accepted, u)
		}

		// Batch mode must accept exactly the same updates in the same order:
		// "%%" lines only group, never add, drop, or reorder. On malformed
		// input the batch reader stops at the same bad line, so its accepted
		// updates are a prefix of the reference reader's (it withholds the
		// partial batch the error interrupts). When the reference loop above
		// stopped at its 10000-update cap rather than at end of input, the
		// batch reader may legitimately read further (a marker-less file is
		// one batch), so only the common prefix is compared.
		capped := len(accepted) >= 10000
		batchSrc := NewReaderSource("fuzz", strings.NewReader(string(data)))
		var batched []Update
		batchErr := error(nil)
		for len(batched) <= len(accepted) {
			b, err := batchSrc.NextBatch()
			if err != nil {
				batchErr = err
				if !errors.Is(err, io.EOF) && !strings.Contains(err.Error(), "fuzz") {
					t.Fatalf("batch error does not identify the source: %v", err)
				}
				break
			}
			batched = append(batched, b.Updates...)
		}
		if !capped && len(batched) > len(accepted) {
			t.Fatalf("batch mode accepted %d updates, reference %d", len(batched), len(accepted))
		}
		for i := 0; i < min(len(batched), len(accepted)); i++ {
			if batched[i] != accepted[i] {
				t.Fatalf("batch mode diverges at update %d: %+v != %+v", i, batched[i], accepted[i])
			}
		}
		if cleanEOF && !capped && errors.Is(batchErr, io.EOF) && len(batched) != len(accepted) {
			t.Fatalf("batch mode lost updates on clean input: %d != %d", len(batched), len(accepted))
		}

		if len(accepted) == 0 {
			return
		}
		// Round trip: writing the accepted updates and re-reading them must
		// reproduce them exactly (WriteUpdates uses %g, which emits the
		// shortest uniquely-parsing representation).
		var b strings.Builder
		if n, err := WriteUpdates(&b, accepted); err != nil || n != len(accepted) {
			t.Fatalf("WriteUpdates = %d, %v", n, err)
		}
		again, err := drainUpdates(NewReaderSource("roundtrip", strings.NewReader(b.String())))
		if err != nil {
			t.Fatalf("re-parse of written updates failed: %v", err)
		}
		if len(again) != len(accepted) {
			t.Fatalf("round trip lost updates: %d -> %d", len(accepted), len(again))
		}
		for i := range accepted {
			if again[i] != accepted[i] {
				t.Fatalf("round trip changed update %d: %+v -> %+v", i, accepted[i], again[i])
			}
		}
	})
}

// TestParseUpdateRejects pins the parser's rejection classes (the cases the
// fuzz corpus seeds), so a regression fails fast without the fuzzer.
func TestParseUpdateRejects(t *testing.T) {
	bad := []string{
		"1 2",             // missing field
		"1 2 3 4",         // extra field
		"x 2 1",           // non-integer vertex
		"1 2 z",           // non-float delta
		"1 2 NaN",         // NaN poisons scores
		"1 2 Inf",         // +Inf
		"1 2 -Inf",        // -Inf
		"1 2 1e309",       // overflows to +Inf
		"-1 2 1",          // negative vertex
		"2147483647 2 1",  // the index's '*' sentinel
		"99999999999 2 1", // overflows int32
	}
	for _, line := range bad {
		if _, err := ParseUpdate(line); err == nil {
			t.Errorf("ParseUpdate(%q) accepted, want error", line)
		}
	}
	good := map[string]Update{
		"1 2 0.5":            {A: 1, B: 2, Delta: 0.5},
		"+1 +2 +0.5":         {A: 1, B: 2, Delta: 0.5},
		"1 2 0x1p-3":         {A: 1, B: 2, Delta: 0.125},
		"2147483646 0 -1e-9": {A: 2147483646, B: 0, Delta: -1e-9},
	}
	for line, want := range good {
		got, err := ParseUpdate(line)
		if err != nil {
			t.Errorf("ParseUpdate(%q) = %v, want %+v", line, err, want)
			continue
		}
		if got != want {
			t.Errorf("ParseUpdate(%q) = %+v, want %+v", line, got, want)
		}
	}
}
