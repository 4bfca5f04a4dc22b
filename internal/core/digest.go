package core

import (
	"hash/fnv"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
	"iolap/internal/storage"
)

// ResultDigest folds one batch's answer into 64 bits: FNV-1a over every
// result tuple (spill-row encoded, so float bit patterns are covered exactly,
// in delivery order) and every estimate's five float64 bit patterns
// (AppendEstimates). It is the repo's one statement of "bit-identical" for a
// (result, estimates) pair: dist workers send it after each batch and the
// coordinator expels a replica whose digest diverges, serve compares served
// and solo trajectories with it, the harness "identical" columns and the
// equivalence suites' helpers call it. A tuple the spill-row codec cannot
// encode (a surviving lineage ref) is an error, never a match.
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
