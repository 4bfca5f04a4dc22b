// Message payload codecs. Everything a worker needs to build its engine
// replica travels in one Setup frame: the engine options that affect results,
// the SQL text, and the full serialized tables. Tables ship as columnar
// blocks (the internal/storage block codec: per-column banks, optional flate
// compression), which round-trip values — float bit patterns included —
// exactly. Scheduling-only options (Workers, ParThreshold, the spill budget)
// are deliberately not shipped: they affect placement, never results, so
// each participant picks its own. Compression is transport-only the same
// way: it changes bytes on the wire, never the decoded rows, so digests and
// the bit-identity contract are computed over decoded contents and hold at
// any compression setting.
package dist

import (
	"fmt"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/storage"
	"iolap/internal/wire"
)

// wireCompressMin is the payload size below which span/merged blobs are
// never compressed: small payloads don't amortize the flate header, and the
// deflate call itself costs more than shipping the bytes.
const wireCompressMin = 1 << 10

// Blob flags: a blob is a length-framed byte payload that is optionally
// flate-compressed. Unlike spill chunks (which are self-describing by a
// magic byte), wire payloads are arbitrary bytes, so the flag is explicit.
const (
	blobRaw   = 0
	blobFlate = 1
)

// appendBlob appends payload b as a blob, compressing when enabled, the
// payload is large enough, and flate actually wins.
func appendBlob(dst []byte, b []byte, compress bool) []byte {
	if compress && len(b) >= wireCompressMin {
		if comp := storage.Deflate(nil, b); len(comp) < len(b) {
			dst = append(dst, blobFlate)
			dst = wire.AppendUvarint(dst, uint64(len(b)))
			return wire.AppendBytes(dst, comp)
		}
	}
	return wire.AppendBytes(append(dst, blobRaw), b)
}

// readBlob reads a blob, always returning bytes the caller owns: raw
// payloads are copied out of the (reused) frame buffer, compressed ones
// decompress into a fresh buffer. Never aliases r's payload.
func readBlob(r *wire.Reader, what string) []byte {
	switch flag := r.Byte(what); flag {
	case blobRaw:
		return append([]byte(nil), r.Bytes(what)...)
	case blobFlate:
		rawLen := r.Uvarint(what)
		comp := r.Bytes(what)
		if r.Err() != nil {
			return nil
		}
		// Inflate bounds rawLen itself (a wrapped-negative int included).
		out, err := storage.Inflate(comp, int(rawLen))
		if err != nil {
			r.Fail(fmt.Errorf("dist: %s: %w", what, err))
		}
		return out
	default:
		r.Fail(fmt.Errorf("dist: %s: bad blob flag %d", what, flag))
		return nil
	}
}

// setupMsg is the decoded msgSetup payload.
type setupMsg struct {
	rank    int // this worker's participant rank (1-based; 0 is the coordinator)
	minRows int
	// catchUp is how many already-completed batches the worker must replay
	// locally (self-exchange mode) before entering the live set — zero for
	// workers present from the start. startSeq is the coordinator's exchange
	// sequence at admission, adopted after the replay; lastDigest is the
	// last completed batch's result digest the replay must reproduce.
	catchUp    int
	startSeq   uint64
	lastDigest uint64
	opts       core.Options
	sqlText    string
	tables     []tableData
}

// tableData is one serialized table: its catalog entry plus contents.
type tableData struct {
	name     string
	streamed bool
	rel      *rel.Relation
}

// encodeSetup serializes the replica blueprint for one worker. Tables are
// emitted in exec.DB.Tables() order (sorted), so every worker sees the same
// catalog construction order.
func encodeSetup(rank, minRows int, opts core.Options, sqlText string, db *exec.DB, streamed map[string]bool, catchUp int, startSeq, lastDigest uint64) ([]byte, error) {
	p := wire.AppendUvarint(nil, protoVersion)
	p = wire.AppendUvarint(p, uint64(rank))
	p = wire.AppendUvarint(p, uint64(minRows))
	p = wire.AppendUvarint(p, uint64(catchUp))
	p = wire.AppendUvarint(p, startSeq)
	p = wire.AppendU64(p, lastDigest)

	p = wire.AppendVarint(p, int64(opts.Mode))
	p = wire.AppendVarint(p, int64(opts.Batches))
	p = wire.AppendVarint(p, int64(opts.Trials)) // negative means "bootstrap off"
	p = wire.AppendF64(p, opts.Slack)
	p = wire.AppendU64(p, opts.Seed)
	p = wire.AppendVarint(p, int64(opts.SnapshotKeep))
	p = wire.AppendVarint(p, int64(opts.MinRangeSupport))
	p = wire.AppendBool(p, opts.PreShuffle)
	p = wire.AppendBool(p, opts.NoViewletRewrites)
	p = wire.AppendVarint(p, int64(opts.BlockRows))
	p = wire.AppendStr(p, opts.StratifyBy)
	p = wire.AppendBool(p, opts.WireCompression)

	p = wire.AppendStr(p, sqlText)

	names := db.Tables()
	p = wire.AppendUvarint(p, uint64(len(names)))
	for _, name := range names {
		r, ok := db.Get(name)
		if !ok {
			return nil, fmt.Errorf("dist: table %q vanished during setup", name)
		}
		p = wire.AppendStr(p, name)
		p = wire.AppendBool(p, streamed[name])
		p = wire.AppendUvarint(p, uint64(len(r.Schema)))
		for _, c := range r.Schema {
			p = wire.AppendStr(p, c.Table)
			p = wire.AppendStr(p, c.Name)
			p = append(p, byte(c.Type))
		}
		var err error
		if p, err = appendTable(p, r, opts.WireCompression); err != nil {
			return nil, fmt.Errorf("dist: serialize table %q: %w", name, err)
		}
	}
	return p, nil
}

// appendTable encodes the relation as length-framed columnar blocks of at
// most storage.BlockMaxRows rows each. Base tables hold no KRef lineage
// values (only aggregates publish them), so the block codec takes every
// catalog; contents it rejects fail the Setup.
func appendTable(p []byte, r *rel.Relation, compress bool) ([]byte, error) {
	nb := (len(r.Tuples) + storage.BlockMaxRows - 1) / storage.BlockMaxRows
	p = wire.AppendUvarint(p, uint64(nb))
	for lo := 0; lo < len(r.Tuples); lo += storage.BlockMaxRows {
		hi := lo + storage.BlockMaxRows
		if hi > len(r.Tuples) {
			hi = len(r.Tuples)
		}
		enc, err := storage.EncodeBlock(nil, r.Schema, r.Tuples[lo:hi], compress)
		if err != nil {
			return nil, err
		}
		p = wire.AppendBytes(p, enc)
	}
	return p, nil
}

func decodeSetup(p []byte) (*setupMsg, error) {
	r := wire.NewReader(p)
	if v := r.Uvarint("version"); r.Err() == nil && v != protoVersion {
		return nil, fmt.Errorf("dist: protocol version mismatch: coordinator %d, worker %d", v, protoVersion)
	}
	s := &setupMsg{
		rank:    int(r.Uvarint("rank")),
		minRows: int(r.Uvarint("minRows")),
	}
	s.catchUp = int(r.Uvarint("catchUp"))
	s.startSeq = r.Uvarint("startSeq")
	s.lastDigest = r.U64("lastDigest")
	s.opts.Mode = core.Mode(r.Varint("mode"))
	s.opts.Batches = int(r.Varint("batches"))
	s.opts.Trials = int(r.Varint("trials"))
	s.opts.Slack = r.F64("slack")
	s.opts.Seed = r.U64("seed")
	s.opts.SnapshotKeep = int(r.Varint("snapshotKeep"))
	s.opts.MinRangeSupport = int(r.Varint("minRangeSupport"))
	s.opts.PreShuffle = r.Bool("preShuffle")
	s.opts.NoViewletRewrites = r.Bool("noViewletRewrites")
	s.opts.BlockRows = int(r.Varint("blockRows"))
	s.opts.StratifyBy = r.Str("stratifyBy")
	s.opts.WireCompression = r.Bool("wireCompression")
	s.sqlText = r.Str("sql")

	nt := r.Count("table count")
	for i := 0; i < nt && r.Err() == nil; i++ {
		var t tableData
		t.name = r.Str("table name")
		t.streamed = r.Bool("table streamed")
		nc := r.Count("column count")
		schema := make(rel.Schema, 0, nc)
		for j := 0; j < nc && r.Err() == nil; j++ {
			col := rel.Column{Table: r.Str("column table"), Name: r.Str("column name")}
			col.Type = rel.Kind(r.Byte("column kind"))
			schema = append(schema, col)
		}
		t.rel = decodeTable(r, t.name, schema)
		s.tables = append(s.tables, t)
	}
	if err := r.Done("setup"); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeTable reads one table's columnar blocks. The block count is bounded
// by the remaining payload (every block consumes at least one byte) before
// any loop runs on it.
func decodeTable(r *wire.Reader, name string, schema rel.Schema) *rel.Relation {
	rln := rel.NewRelation(schema)
	nb := r.Count("block count")
	for i := 0; i < nb && r.Err() == nil; i++ {
		enc := r.Bytes("block")
		if r.Err() != nil {
			break
		}
		tuples, err := storage.DecodeBlock(enc, schema)
		if err != nil {
			r.Fail(fmt.Errorf("dist: table %q block %d: %w", name, i, err))
			break
		}
		rln.Tuples = append(rln.Tuples, tuples...)
	}
	return rln
}

// encodeStep freezes a batch's membership: the batch number plus the ranks of
// every worker the coordinator believes alive, plus the span weights for the
// batch (index 0 is the coordinator's weight, index i+1 belongs to the worker
// at liveRanks[i]). Workers derive their span from their position in this
// list via weightedSpans; the coordinator uses the identical list even for
// workers that die mid-batch (their spans are re-dispatched, the assignment
// never shifts).
func encodeStep(batch int, liveRanks []int, weights []int) []byte {
	p := wire.AppendUvarint(nil, uint64(batch))
	p = wire.AppendUvarint(p, uint64(len(liveRanks)))
	for _, rk := range liveRanks {
		p = wire.AppendUvarint(p, uint64(rk))
	}
	p = wire.AppendUvarint(p, uint64(len(weights)))
	for _, w := range weights {
		p = wire.AppendUvarint(p, uint64(w))
	}
	return p
}

func decodeStep(p []byte) (batch int, liveRanks []int, weights []int, err error) {
	r := wire.NewReader(p)
	batch = int(r.Uvarint("batch"))
	n := r.Count("live count")
	liveRanks = make([]int, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		liveRanks = append(liveRanks, int(r.Uvarint("live rank")))
	}
	nw := r.Count("weight count")
	weights = make([]int, 0, nw)
	for i := 0; i < nw && r.Err() == nil; i++ {
		weights = append(weights, int(r.Uvarint("weight")))
	}
	if len(weights) != len(liveRanks)+1 {
		r.Fail(fmt.Errorf("dist: step: %d weights for %d live ranks", len(weights), len(liveRanks)))
	}
	return batch, liveRanks, weights, r.Done("step")
}

// spanMsg is one computed span: seq orders the exchange calls within a batch
// so a frame from the wrong site can never be merged. nanos is the sender's
// measured compute time for the span, feeding the coordinator's per-worker
// cost model (span sizing); it never affects results.
type spanMsg struct {
	seq     uint64
	lo, hi  int
	nanos   uint64
	payload []byte
}

func encodeSpan(seq uint64, lo, hi int, nanos uint64, payload []byte, compress bool) []byte {
	p := wire.AppendUvarint(nil, seq)
	p = wire.AppendUvarint(p, uint64(lo))
	p = wire.AppendUvarint(p, uint64(hi))
	p = wire.AppendUvarint(p, nanos)
	return appendBlob(p, payload, compress)
}

func decodeSpan(p []byte) (spanMsg, error) {
	r := wire.NewReader(p)
	sm := spanMsg{
		seq:   r.Uvarint("seq"),
		lo:    int(r.Uvarint("lo")),
		hi:    int(r.Uvarint("hi")),
		nanos: r.Uvarint("nanos"),
	}
	sm.payload = readBlob(r, "span payload")
	if err := r.Done("span"); err != nil {
		return spanMsg{}, err
	}
	return sm, nil
}

func encodeCompute(seq uint64, lo, hi int) []byte {
	p := wire.AppendUvarint(nil, seq)
	p = wire.AppendUvarint(p, uint64(lo))
	return wire.AppendUvarint(p, uint64(hi))
}

func decodeCompute(p []byte) (seq uint64, lo, hi int, err error) {
	r := wire.NewReader(p)
	seq = r.Uvarint("seq")
	lo = int(r.Uvarint("lo"))
	hi = int(r.Uvarint("hi"))
	return seq, lo, hi, r.Done("compute")
}

// encodeMerged carries the complete merged site: every span's payload in
// ascending span order. All replicas — the coordinator included — apply these
// identical bytes, which is the bit-identity argument in one sentence.
func encodeMerged(seq uint64, spans [][2]int, payloads [][]byte, compress bool) []byte {
	p := wire.AppendUvarint(nil, seq)
	p = wire.AppendUvarint(p, uint64(len(spans)))
	for i, sp := range spans {
		p = wire.AppendUvarint(p, uint64(sp[0]))
		p = wire.AppendUvarint(p, uint64(sp[1]))
		p = appendBlob(p, payloads[i], compress)
	}
	return p
}

func decodeMerged(p []byte) (seq uint64, spans []spanMsg, err error) {
	r := wire.NewReader(p)
	seq = r.Uvarint("seq")
	n := r.Count("span count")
	spans = make([]spanMsg, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		sm := spanMsg{seq: seq}
		sm.lo = int(r.Uvarint("merged lo"))
		sm.hi = int(r.Uvarint("merged hi"))
		sm.payload = readBlob(r, "merged payload")
		spans = append(spans, sm)
	}
	return seq, spans, r.Done("merged")
}

func encodeBatchDone(batch int, digest uint64) []byte {
	p := wire.AppendUvarint(nil, uint64(batch))
	return wire.AppendU64(p, digest)
}

func decodeBatchDone(p []byte) (batch int, digest uint64, err error) {
	r := wire.NewReader(p)
	batch = int(r.Uvarint("batch"))
	digest = r.U64("digest")
	return batch, digest, r.Done("batchDone")
}
