package dist

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/wire"
)

func TestAssignSpansCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 101} {
		for p := 1; p <= 5; p++ {
			spans := assignSpans(n, p)
			if len(spans) != p {
				t.Fatalf("n=%d p=%d: %d spans", n, p, len(spans))
			}
			prev := 0
			for _, sp := range spans {
				if sp[0] != prev || sp[1] < sp[0] {
					t.Fatalf("n=%d p=%d: bad span %v after %d", n, p, sp, prev)
				}
				prev = sp[1]
			}
			if prev != n {
				t.Fatalf("n=%d p=%d: spans cover [0,%d)", n, p, prev)
			}
		}
	}
}

func TestSetupRoundTrip(t *testing.T) {
	db := exec.NewDB()
	r := rel.NewRelation(rel.Schema{
		{Table: "s", Name: "id", Type: rel.KString},
		{Name: "v", Type: rel.KFloat},
		{Name: "k", Type: rel.KInt},
	})
	r.Append(rel.String("a"), rel.Float(1.25), rel.Int(-3))
	r.AppendMult(2.5, rel.String("b"), rel.Float(0.1), rel.Int(9))
	db.Put("stream", r)
	dim := rel.NewRelation(rel.Schema{{Name: "k", Type: rel.KInt}})
	dim.Append(rel.Int(1))
	db.Put("dim", dim)

	opts := core.Options{
		Mode: core.ModeOPT1, Batches: 7, Trials: -1, Slack: 1.5, Seed: 42,
		SnapshotKeep: 3, MinRangeSupport: 5, PreShuffle: true,
		NoViewletRewrites: true, BlockRows: 4, StratifyBy: "k",
	}
	p, err := encodeSetup(2, 16, opts, "SELECT 1", db, map[string]bool{"stream": true}, 4, 17, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := decodeSetup(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.rank != 2 || s.minRows != 16 || s.sqlText != "SELECT 1" {
		t.Fatalf("header: %+v", s)
	}
	if s.catchUp != 4 || s.startSeq != 17 || s.lastDigest != 0xfeed {
		t.Fatalf("catch-up fields: %+v", s)
	}
	if !reflect.DeepEqual(s.opts, opts) {
		t.Fatalf("options: got %+v want %+v", s.opts, opts)
	}
	if len(s.tables) != 2 {
		t.Fatalf("tables: %d", len(s.tables))
	}
	// db.Tables() is sorted: dim first, stream second.
	if s.tables[0].name != "dim" || s.tables[0].streamed || !s.tables[1].streamed {
		t.Fatalf("table flags: %+v", s.tables)
	}
	got := s.tables[1].rel
	if !reflect.DeepEqual(got.Schema, r.Schema) {
		t.Fatalf("schema: %v want %v", got.Schema, r.Schema)
	}
	if !reflect.DeepEqual(got.Tuples, r.Tuples) {
		t.Fatalf("tuples: %v want %v", got.Tuples, r.Tuples)
	}
}

func TestSetupRejectsCorruptPayload(t *testing.T) {
	db := exec.NewDB()
	db.Put("t", rel.NewRelation(rel.Schema{{Name: "x", Type: rel.KInt}}))
	p, err := encodeSetup(1, 32, core.Options{}, "q", db, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSetup(p[:len(p)/2]); err == nil {
		t.Error("truncated setup: expected error")
	}
	if _, err := decodeSetup(append(append([]byte{}, p...), 0)); err == nil {
		t.Error("trailing bytes: expected error")
	}
	// A v3 coordinator's Setup (partitioned shipping, per-table format byte)
	// must fail loudly, not decode into a diverging replica.
	v3 := append(wire.AppendUvarint(nil, 3), p[len(wire.AppendUvarint(nil, protoVersion)):]...)
	if _, err := decodeSetup(v3); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Errorf("version-3 setup: err = %v, want a protocol version mismatch", err)
	}
}

func TestMessageCodecs(t *testing.T) {
	p := encodeStep(5, []int{1, 3, 4}, []int{16, 16, 8, 32})
	b, live, ws, err := decodeStep(p)
	if err != nil || b != 5 || !reflect.DeepEqual(live, []int{1, 3, 4}) || !reflect.DeepEqual(ws, []int{16, 16, 8, 32}) {
		t.Fatalf("step: %d %v %v %v", b, live, ws, err)
	}
	// The weight vector must stay aligned with the live list: one entry for
	// the coordinator plus one per rank.
	if _, _, _, err := decodeStep(encodeStep(5, []int{1, 3}, []int{16, 16})); err == nil {
		t.Fatal("misaligned weights: expected error")
	}

	sm, err := decodeSpan(encodeSpan(9, 10, 20, 1234, []byte{7, 8}, false))
	if err != nil || sm.seq != 9 || sm.lo != 10 || sm.hi != 20 || sm.nanos != 1234 || !bytes.Equal(sm.payload, []byte{7, 8}) {
		t.Fatalf("span: %+v %v", sm, err)
	}

	seq, lo, hi, err := decodeCompute(encodeCompute(3, 4, 5))
	if err != nil || seq != 3 || lo != 4 || hi != 5 {
		t.Fatalf("compute: %d %d %d %v", seq, lo, hi, err)
	}

	spans := [][2]int{{0, 2}, {2, 2}, {2, 5}}
	payloads := [][]byte{{1, 2}, nil, {3, 4, 5}}
	mseq, got, err := decodeMerged(encodeMerged(11, spans, payloads, false))
	if err != nil || mseq != 11 || len(got) != 3 {
		t.Fatalf("merged: %d %d %v", mseq, len(got), err)
	}
	for i, sm := range got {
		if sm.lo != spans[i][0] || sm.hi != spans[i][1] || !bytes.Equal(sm.payload, payloads[i]) {
			t.Fatalf("merged span %d: %+v", i, sm)
		}
	}

	batch, dg, err := decodeBatchDone(encodeBatchDone(6, 0xdeadbeefcafe))
	if err != nil || batch != 6 || dg != 0xdeadbeefcafe {
		t.Fatalf("batchDone: %d %#x %v", batch, dg, err)
	}
}

func TestFaultConn(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := NewFaultConn(a)
	fc.FailWriteAt(2)
	fc.FailReadAt(1)

	go func() { // peer drains one successful write
		buf := make([]byte, 8)
		b.Read(buf)
	}()
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := fc.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: %v, want ErrInjected", err)
	}
	if _, err := fc.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 1: %v, want ErrInjected", err)
	}
	reads, writes, closes := fc.Ops()
	if reads != 1 || writes != 2 || closes != 0 {
		t.Fatalf("ops: %d %d %d", reads, writes, closes)
	}

	fc.FailCloseAt(1)
	if err := fc.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("close: %v, want ErrInjected", err)
	}
	if _, _, closes = fc.Ops(); closes != 1 {
		t.Fatalf("closes: %d", closes)
	}
}

func TestFaultConnKillOnFault(t *testing.T) {
	a, b := net.Pipe()
	fc := NewFaultConn(a)
	fc.KillOnFault(true)
	fc.FailReadAt(1)
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read: %v", err)
	}
	// The underlying conn is closed, so the peer observes the death.
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("peer read after kill: %v, want closed-pipe error", err)
	}
}

// TestDecodeTableRejectsLyingCounts pins the bounds-guarded count fix: a
// block count promising more blocks than the remaining payload could
// possibly hold must be rejected up front, never trusted.
func TestDecodeTableRejectsLyingCounts(t *testing.T) {
	r := wire.NewReader(wire.AppendUvarint(nil, 1<<40))
	decodeTable(r, "t", rel.Schema{{Name: "x", Type: rel.KInt}})
	if r.Err() == nil {
		t.Error("lying block count accepted")
	}
}

// TestSetupRejectsRefTable: a table the block codec rejects — one holding
// lineage references, which base tables never do — fails Setup with an error
// naming the table.
func TestSetupRejectsRefTable(t *testing.T) {
	db := exec.NewDB()
	r := rel.NewRelation(rel.Schema{{Name: "v", Type: rel.KFloat}})
	r.Append(rel.NewRef(rel.Ref{Op: 3, Key: "g|x", Col: 1}))
	r.Append(rel.Float(2.5))
	db.Put("refs", r)
	conns, stop := StartLoopback(1, WorkerOptions{})
	defer stop()
	coord := NewCoordinator(conns, forceDist())
	defer coord.Close()
	err := coord.Setup(db, nil, "SELECT v FROM refs", core.Options{WireCompression: true})
	if err == nil || !strings.Contains(err.Error(), `"refs"`) {
		t.Fatalf("setup err = %v, want a failure naming table \"refs\"", err)
	}
}

// TestSpanPayloadOwnership pins the frame-buffer-reuse contract: decoded span
// and merged payloads must not alias the input buffer, which wire.ReadFrameReuse
// overwrites on the next frame.
func TestSpanPayloadOwnership(t *testing.T) {
	enc := encodeSpan(1, 0, 4, 9, []byte{1, 2, 3, 4}, false)
	sm, err := decodeSpan(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xee
	}
	if !bytes.Equal(sm.payload, []byte{1, 2, 3, 4}) {
		t.Fatalf("span payload aliases the frame buffer: %v", sm.payload)
	}

	menc := encodeMerged(2, [][2]int{{0, 3}}, [][]byte{{9, 8, 7}}, false)
	_, spans, err := decodeMerged(menc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range menc {
		menc[i] = 0xee
	}
	if !bytes.Equal(spans[0].payload, []byte{9, 8, 7}) {
		t.Fatalf("merged payload aliases the frame buffer: %v", spans[0].payload)
	}
}

// TestSpanBlobCompression: payloads past the threshold ship flate-compressed
// and decode to identical bytes; sub-threshold payloads stay raw even with
// compression on.
func TestSpanBlobCompression(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KiB, compressible
	raw := encodeSpan(1, 0, 9, 7, payload, false)
	comp := encodeSpan(1, 0, 9, 7, payload, true)
	if len(comp) >= len(raw) {
		t.Fatalf("compressed span frame %d B not below raw %d B", len(comp), len(raw))
	}
	sm, err := decodeSpan(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sm.payload, payload) {
		t.Fatal("compressed span payload did not round-trip")
	}
	small := []byte{1, 2, 3}
	if got := encodeSpan(1, 0, 9, 7, small, true); !bytes.Equal(got, encodeSpan(1, 0, 9, 7, small, false)) {
		t.Fatal("sub-threshold payload was not left raw")
	}
}
