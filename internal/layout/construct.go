package layout

// Construct builds a layout for dimension d recursively, generalizing the
// structure of the optimal 2D and 3D orderings: with R a cyclic arrangement
// of the 3^(d-1)−1 regions of the first d−1 axes (r_1 … r_n), the d-
// dimensional order is
//
//	[-d], [-d]+r_1 … [-d]+r_n, r_n, [+d]+r_n, [+d]+r_1 … [+d]+r_{n-1}, [+d],
//	r_1 … r_{n-1}
//
// — walk the whole ring inside the −d slab, bridge through r_n, walk it
// inside the +d slab, then lay down the remaining equatorial regions. The
// construction achieves the Eq. 1 optimum for d ≤ 3 (2, 9, 42 messages) and
// lands within ~2% of it for d = 4 and 5 (213 vs 209, 1064 vs 1042).
func Construct(d int) []Set {
	if d < 1 || d > MaxDims {
		panic("layout: dimension out of range")
	}
	if d == 1 {
		return Surface1D()
	}
	if d == 2 {
		// The boundary walk (a Hamiltonian cycle over the 8 regions); the
		// recursion needs a cyclic base, and this rotation of Surface2D —
		// starting at a face, ending at a corner — is the one whose bridge
		// element yields the 42-message 3D order.
		return []Set{
			FromDirs(-1), FromDirs(-1, -2), FromDirs(-2), FromDirs(1, -2),
			FromDirs(1), FromDirs(1, 2), FromDirs(2), FromDirs(-1, 2),
		}
	}
	ring := Construct(d - 1)
	n := len(ring)
	neg, pos := FromDirs(-d), FromDirs(d)
	join := func(a, b Set) Set { return a | b }
	out := make([]Set, 0, pow(3, d)-1)
	out = append(out, neg)
	for _, r := range ring {
		out = append(out, join(neg, r))
	}
	out = append(out, ring[n-1], join(pos, ring[n-1]))
	for _, r := range ring[:n-1] {
		out = append(out, join(pos, r))
	}
	out = append(out, pos)
	out = append(out, ring[:n-1]...)
	return out
}
