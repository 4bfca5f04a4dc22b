package plan

// Lineage blocks (Section 6.1): a lineage block is a maximal SPJA subtree —
// any combination of select/project/join/union operators capped by (at most)
// one aggregate. Lineage is propagated in full within a block; across block
// boundaries only (aggregate reference, group-by key) pairs flow, which is
// what the rel.Ref value encodes. Only tests compute the partition below:
// the runtime gets the same behaviour for free because aggregates emit Ref
// values for uncertain columns.

// Block is one lineage block: the ids of the member operators and the id of
// the capping aggregate (-1 when the block is capped by the query root).
type Block struct {
	Members []int
	CapAgg  int
}

// lineageBlocks partitions the plan into lineage blocks, bottom-up. Every operator
// belongs to exactly one block; an aggregate caps the block containing its
// input subtree and starts lineage afresh above it.
func lineageBlocks(root Node) []Block {
	var blocks []Block
	// blockOf[id] = index into blocks for the (open) block the node's
	// output belongs to.
	blockOf := make(map[int]int)
	open := func() int {
		blocks = append(blocks, Block{CapAgg: -1})
		return len(blocks) - 1
	}
	var mergeInto func(dst int, src int)
	mergeInto = func(dst, src int) {
		if dst == src {
			return
		}
		blocks[dst].Members = append(blocks[dst].Members, blocks[src].Members...)
		blocks[src].Members = nil
		for id, b := range blockOf {
			if b == src {
				blockOf[id] = dst
			}
		}
	}
	Walk(root, func(n Node) {
		switch t := n.(type) {
		case *Scan:
			b := open()
			blocks[b].Members = append(blocks[b].Members, n.ID())
			blockOf[n.ID()] = b
		case *Aggregate:
			// The aggregate caps its input's block; its own output
			// starts a new block above.
			b := blockOf[t.Child.ID()]
			blocks[b].Members = append(blocks[b].Members, n.ID())
			blocks[b].CapAgg = n.ID()
			nb := open()
			blockOf[n.ID()] = nb
		default:
			// SPJU: merge all children's open blocks and join them.
			cs := n.Children()
			b := blockOf[cs[0].ID()]
			for _, c := range cs[1:] {
				mergeInto(b, blockOf[c.ID()])
			}
			blocks[b].Members = append(blocks[b].Members, n.ID())
			blockOf[n.ID()] = b
		}
	})
	// Drop emptied (merged-away) blocks; blocks whose Members are empty
	// and were opened for aggregate outputs that feed nothing remain for
	// the root aggregate case — drop those too.
	out := blocks[:0]
	for _, b := range blocks {
		if len(b.Members) > 0 {
			out = append(out, b)
		}
	}
	return out
}
