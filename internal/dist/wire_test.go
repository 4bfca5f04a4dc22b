package dist

import (
	"testing"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/wire"
	"iolap/internal/wire/wiretest"
)

// wireSetup is the Setup fixture: every option non-default and one table
// with a non-unit multiplicity and a null.
func wireSetup(t testing.TB) []byte {
	db := exec.NewDB()
	r := rel.NewRelation(rel.Schema{
		{Table: "s", Name: "cdn", Type: rel.KString},
		{Name: "x", Type: rel.KFloat},
		{Name: "k", Type: rel.KInt},
	})
	r.Append(rel.String("a"), rel.Float(1.25), rel.Int(-3))
	r.AppendMult(2.5, rel.String("b"), rel.Float(0.1), rel.Int(9))
	r.Append(rel.String("a"), rel.Null(), rel.Int(10))
	db.Put("stream", r)
	opts := core.Options{
		Mode: core.ModeOPT1, Batches: 7, Trials: -1, Slack: 1.5, Seed: 42,
		SnapshotKeep: 3, MinRangeSupport: 5, PreShuffle: true,
		NoViewletRewrites: true, BlockRows: 4, StratifyBy: "k",
	}
	p, err := encodeSetup(2, 16, opts, "SELECT 1", db, map[string]bool{"stream": true}, 4, 17, 0xfeed)
	if err != nil {
		t.Fatalf("encode setup: %v", err)
	}
	return p
}

func recodeSetup(p []byte) ([]byte, error) {
	s, err := decodeSetup(p)
	if err != nil {
		return nil, err
	}
	db, streamed := exec.NewDB(), map[string]bool{}
	for _, td := range s.tables {
		db.Put(td.name, td.rel)
		streamed[td.name] = td.streamed
	}
	return encodeSetup(s.rank, s.minRows, s.opts, s.sqlText, db, streamed, s.catchUp, s.startSeq, s.lastDigest)
}

// wireMessages lists every dist payload codec once for the shared
// corruption table and fuzz target (wiretest).
func wireMessages(t testing.TB) []wiretest.Message {
	uv := func(p []byte, vs ...uint64) []byte {
		for _, v := range vs {
			p = wire.AppendUvarint(p, v)
		}
		return p
	}
	const huge = 1 << 40
	spans := [][2]int{{0, 2}, {2, 2}, {2, 5}}
	return []wiretest.Message{
		{Name: "setup", Valid: wireSetup(t), Recode: recodeSetup},
		{
			Name:  "step",
			Valid: encodeStep(5, []int{1, 3, 4}, []int{16, 16, 8, 32}),
			Recode: func(p []byte) ([]byte, error) {
				b, live, ws, err := decodeStep(p)
				if err != nil {
					return nil, err
				}
				return encodeStep(b, live, ws), nil
			},
			Lies: [][]byte{uv(nil, 5, huge), uv(nil, 5, 0, huge)}, // live count, weight count
		},
		{
			Name:  "span",
			Valid: encodeSpan(9, 10, 20, 1234, []byte{7, 8, 9}, false),
			Recode: func(p []byte) ([]byte, error) {
				sm, err := decodeSpan(p)
				if err != nil {
					return nil, err
				}
				return encodeSpan(sm.seq, sm.lo, sm.hi, sm.nanos, sm.payload, false), nil
			},
			Lies: [][]byte{
				uv(append(uv(nil, 9, 10, 20, 1234), blobRaw), huge),                  // raw blob length
				append(uv(append(uv(nil, 9, 10, 20, 1234), blobFlate), 1<<29, 1), 0), // 512 MiB promised by a 1-byte flate stream
			},
		},
		{
			Name:  "compute",
			Valid: encodeCompute(3, 4, 5),
			Recode: func(p []byte) ([]byte, error) {
				seq, lo, hi, err := decodeCompute(p)
				if err != nil {
					return nil, err
				}
				return encodeCompute(seq, lo, hi), nil
			},
		},
		{
			Name:  "merged",
			Valid: encodeMerged(11, spans, [][]byte{{1, 2}, nil, {3, 4, 5}}, false),
			Recode: func(p []byte) ([]byte, error) {
				seq, sms, err := decodeMerged(p)
				if err != nil {
					return nil, err
				}
				sp := make([][2]int, len(sms))
				pl := make([][]byte, len(sms))
				for i, sm := range sms {
					sp[i], pl[i] = [2]int{sm.lo, sm.hi}, sm.payload
				}
				return encodeMerged(seq, sp, pl, false), nil
			},
			Lies: [][]byte{uv(nil, 11, huge)}, // span count
		},
		{
			Name:  "batchDone",
			Valid: encodeBatchDone(6, 0xdeadbeefcafe),
			Recode: func(p []byte) ([]byte, error) {
				b, dg, err := decodeBatchDone(p)
				if err != nil {
					return nil, err
				}
				return encodeBatchDone(b, dg), nil
			},
		},
	}
}

// TestDecodersRejectCorruption: lying counts, truncation at every byte offset
// and trailing bytes return errors from every payload decoder — never a
// panic or an allocation sized off the wire.
func TestDecodersRejectCorruption(t *testing.T) { wiretest.Check(t, wireMessages(t)) }

func FuzzWire(f *testing.F) { wiretest.Fuzz(f, wireMessages(f)) }

// TestGoldenBytes pins every message encoding to the bytes protocol v3
// produced before the codecs moved onto internal/wire (captured at the
// parent commit): the port is a replace, not a format change. Only setup has
// changed since, in v4 (no partition fields, no per-table format byte).
func TestGoldenBytes(t *testing.T) {
	want := map[string]string{
		"setup":     "0402100411edfe000000000000020e01000000000000f83f2a00000000000000060a010108016b000853454c4543542031010673747265616d010301730363646e040001780300016b02013f0103033b01000000000000f03f0000000000000440000000000000f03f05000201610162000100030103000000000000f43f9a9999999999b93f0200051802",
		"step":      "05030103040410100820",
		"span":      "090a14d2090003070809",
		"compute":   "030405",
		"merged":    "0b030002000201020202000002050003030405",
		"batchDone": "06fecaefbeadde0000",
	}
	wiretest.Golden(t, wireMessages(t), want)
}
