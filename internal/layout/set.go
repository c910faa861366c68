// Package layout implements the region algebra and layout optimization from
// "Improving Communication by Optimizing On-Node Data Movement with Data
// Layout" (PPoPP '21). A D-dimensional subdomain's surface decomposes into
// 3^D-1 disjoint regions, one per non-empty set of signed axis directions.
// Region r(T) must be sent to neighbor N(S) exactly when ∅ ≠ S ⊆ T. The
// physical order in which regions are stored determines how many point-to-
// point messages a ghost-zone exchange needs: regions that are consecutive in
// memory and share a destination can travel in one message. This package
// provides the set representation, message-count evaluation, closed-form
// bounds (the paper's Eq. 1-3), and optimizers that recover the paper's
// optimal layouts (9 messages in 2D, 42 in 3D).
package layout

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxDims is the largest dimensionality supported by Set.
const MaxDims = 15

// Set is a set of signed axis directions identifying a surface region or a
// neighbor. Axis i (0-based) contributes bit 2i for its negative direction
// and bit 2i+1 for its positive direction. A Set is valid when no axis
// appears in both directions. The zero Set is the empty set (the interior;
// not a surface region and not a neighbor).
type Set uint32

// FromDirs builds a Set from paper-style signed 1-based axis numbers: the
// paper's r({A1-, A2+}) is FromDirs(-1, 2). It panics on a zero or
// out-of-range axis or on an axis given in both directions, since direction
// lists are compile-time constants in practice.
func FromDirs(dirs ...int) Set {
	var s Set
	for _, d := range dirs {
		if d == 0 {
			panic("layout: direction 0 is invalid; axes are 1-based and signed")
		}
		axis := d
		if axis < 0 {
			axis = -axis
		}
		if axis > MaxDims {
			panic(fmt.Sprintf("layout: axis %d exceeds MaxDims=%d", axis, MaxDims))
		}
		var bit Set
		if d < 0 {
			bit = 1 << (2 * uint(axis-1))
		} else {
			bit = 1 << (2*uint(axis-1) + 1)
		}
		if s&(bit|conjugate(bit)) != 0 {
			panic(fmt.Sprintf("layout: axis %d specified twice", axis))
		}
		s |= bit
	}
	return s
}

// conjugate returns the bit pattern with every direction flipped.
func conjugate(s Set) Set {
	neg := s & 0x55555555 // even bits: negative directions
	pos := s & 0xAAAAAAAA // odd bits: positive directions
	return neg<<1 | pos>>1
}

// Opposite returns the set with every direction reversed. The surface region
// r(T) on one subdomain fills the ghost region g(T.Opposite()) of the
// neighbor N(T).
func (s Set) Opposite() Set { return conjugate(s) }

// Valid reports whether no axis appears in both directions.
func (s Set) Valid() bool { return s&conjugate(s) == 0 }

// Empty reports whether the set has no directions.
func (s Set) Empty() bool { return s == 0 }

// Weight returns the number of directions in the set (the region's
// codimension: 1 for a face, 2 for an edge, 3 for a corner in 3D).
func (s Set) Weight() int { return bits.OnesCount32(uint32(s)) }

// SubsetOf reports whether every direction of s is also in t.
func (s Set) SubsetOf(t Set) bool { return s&t == s }

// Intersect returns the directions common to s and t. The intersection of
// two valid sets is valid.
func (s Set) Intersect(t Set) Set { return s & t }

// Dirs returns the paper-style signed 1-based directions of the set in
// ascending axis order (negative before positive on the same axis).
func (s Set) Dirs() []int {
	var dirs []int
	for axis := 1; axis <= MaxDims; axis++ {
		if s&(1<<(2*uint(axis-1))) != 0 {
			dirs = append(dirs, -axis)
		}
		if s&(1<<(2*uint(axis-1)+1)) != 0 {
			dirs = append(dirs, axis)
		}
	}
	return dirs
}

// Axis returns the direction of the set along 1-based axis: -1, 0, or +1.
func (s Set) Axis(axis int) int {
	switch {
	case s&(1<<(2*uint(axis-1))) != 0:
		return -1
	case s&(1<<(2*uint(axis-1)+1)) != 0:
		return 1
	default:
		return 0
	}
}

// String renders the set in the paper's notation, e.g. "{-1,+2}".
func (s Set) String() string {
	dirs := s.Dirs()
	parts := make([]string, len(dirs))
	for i, d := range dirs {
		parts[i] = fmt.Sprintf("%+d", d)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Regions returns all 3^D-1 non-empty valid direction sets for a
// D-dimensional domain, ordered by weight then numerically. These are both
// the surface regions and (equivalently) the neighbors of a subdomain.
func Regions(d int) []Set {
	if d < 1 || d > MaxDims {
		panic(fmt.Sprintf("layout: dimension %d out of range [1,%d]", d, MaxDims))
	}
	var all []Set
	var build func(axis int, cur Set)
	build = func(axis int, cur Set) {
		if axis == d {
			if !cur.Empty() {
				all = append(all, cur)
			}
			return
		}
		build(axis+1, cur)
		build(axis+1, cur|1<<(2*uint(axis)))
		build(axis+1, cur|1<<(2*uint(axis)+1))
	}
	build(0, 0)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight() != all[j].Weight() {
			return all[i].Weight() < all[j].Weight()
		}
		return all[i] < all[j]
	})
	return all
}

// NeighborsOf returns every neighbor that must receive surface region r(t):
// all non-empty subsets of t, in ascending numeric order.
func NeighborsOf(t Set) []Set {
	if !t.Valid() {
		panic("layout: invalid set")
	}
	// Enumerate submasks of t. All submasks of a valid set are valid.
	var subs []Set
	for m := t; m != 0; m = (m - 1) & t {
		subs = append(subs, m)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
	return subs
}

// RegionsFor returns every surface region that neighbor N(s) must receive
// from this subdomain: all valid supersets of s within d dimensions.
func RegionsFor(d int, s Set) []Set {
	var out []Set
	for _, t := range Regions(d) {
		if s.SubsetOf(t) {
			out = append(out, t)
		}
	}
	return out
}
