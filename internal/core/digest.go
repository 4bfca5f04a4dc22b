package core

import (
	"fmt"
	"hash/fnv"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
	"iolap/internal/storage"
	"iolap/internal/wire"
)

// ResultDigest folds one batch's answer into 64 bits: FNV-1a over every
// result tuple (spill-row encoded, so float bit patterns are covered exactly,
// in delivery order) and every estimate's five float64 bit patterns
// (AppendEstimates). It is the repo's one statement of "bit-identical" for a
// (result, estimates) pair: serve compares served and solo trajectories with
// it, the harness "identical" columns and the equivalence suites' helpers
// call it. A tuple the spill-row codec cannot encode (a surviving lineage
// ref) is an error, never a match.
func ResultDigest(result *rel.Relation, ests [][]bootstrap.Estimate) (uint64, error) {
	h := fnv.New64a()
	var buf []byte
	var err error
	for _, t := range result.Tuples {
		buf, err = storage.AppendSpillRow(buf[:0], t.Vals, t.Mult, nil)
		if err != nil {
			return 0, err
		}
		h.Write(buf)
	}
	for _, row := range ests {
		buf = AppendEstimates(buf[:0], row)
		h.Write(buf)
	}
	return h.Sum64(), nil
}

// AppendEstimates appends each estimate as five F64 words — Value, Stdev,
// CILo, CIHi, RelStd — the one encoding of a bootstrap estimate (the result
// digest, the serve protocol's Estimate frame).
func AppendEstimates(dst []byte, es []bootstrap.Estimate) []byte {
	for _, e := range es {
		dst = wire.AppendF64(dst, e.Value)
		dst = wire.AppendF64(dst, e.Stdev)
		dst = wire.AppendF64(dst, e.CILo)
		dst = wire.AppendF64(dst, e.CIHi)
		dst = wire.AppendF64(dst, e.RelStd)
	}
	return dst
}

// ReadEstimates decodes n estimates written by AppendEstimates, rejecting an
// n the remaining payload cannot hold before allocating.
func ReadEstimates(r *wire.Reader, n int) []bootstrap.Estimate {
	if n < 0 || n > r.Len()/40 {
		r.Fail(fmt.Errorf("core: %d estimates exceed the %d payload bytes left", n, r.Len()))
		return nil
	}
	es := make([]bootstrap.Estimate, n)
	for i := range es {
		es[i] = bootstrap.Estimate{
			Value:  r.F64("estimate value"),
			Stdev:  r.F64("estimate stdev"),
			CILo:   r.F64("estimate cilo"),
			CIHi:   r.F64("estimate cihi"),
			RelStd: r.F64("estimate relstd"),
		}
	}
	return es
}
