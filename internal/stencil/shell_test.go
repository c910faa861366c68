package stencil

import (
	"testing"

	"github.com/bricklab/brick/internal/grid"
)

// TestShellPlusInteriorEqualsFull: computing the interior box and then the
// shell must write exactly the same elements as one full margin apply.
func TestShellPlusInteriorEqualsFull(t *testing.T) {
	for _, margin := range []int{0, 1, 2} {
		dom := [3]int{12, 10, 8}
		const ghost = 3
		st := Star7()
		src := grid.New(dom, ghost)
		fillRandomish(src)

		full := grid.New(dom, ghost)
		ApplyGrid(full, src, st, margin)

		split := grid.New(dom, ghost)
		// Interior box: the margin region shrunk by the radius on each side.
		var lo, hi [3]int
		for a := 0; a < 3; a++ {
			lo[a] = ghost - margin + st.Radius
			hi[a] = ghost + dom[a] + margin - st.Radius
		}
		ApplyGridRegionWorkers(split, src, st, lo, hi, 0)
		ApplyGridShellWorkers(split, src, st, margin, lo, hi, 0)

		for i := range full.Data {
			if full.Data[i] != split.Data[i] {
				t.Fatalf("margin %d: element %d differs: %v vs %v", margin, i, full.Data[i], split.Data[i])
			}
		}
	}
}

// TestShellSkipBoxLargerThanRegion: a degenerate inner box covering the
// whole region leaves the shell empty.
func TestShellSkipBoxLargerThanRegion(t *testing.T) {
	dom := [3]int{8, 8, 8}
	src := grid.New(dom, 2)
	dst := grid.New(dom, 2)
	fillRandomish(src)
	lo := [3]int{2, 2, 2}
	hi := [3]int{10, 10, 10}
	ApplyGridShellWorkers(dst, src, Star7(), 0, lo, hi, 0) // inner == full region
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatal("empty shell wrote data")
		}
	}
}

// TestShellWritesDisjointBoxes: no element is written twice (each box write
// count is exactly 0 or 1), checked by applying an accumulating marker.
func TestShellWritesDisjointBoxes(t *testing.T) {
	dom := [3]int{10, 10, 10}
	const ghost = 2
	src := grid.New(dom, ghost)
	dst := grid.New(dom, ghost)
	for i := range src.Data {
		src.Data[i] = 1
	}
	for i := range dst.Data {
		dst.Data[i] = -7
	}
	st := Star7() // coefficients sum to 1: output is exactly 1 where written
	lo := [3]int{ghost + 2, ghost + 2, ghost + 2}
	hi := [3]int{ghost + dom[0] - 2, ghost + dom[1] - 2, ghost + dom[2] - 2}
	ApplyGridShellWorkers(dst, src, st, 0, lo, hi, 0)
	written, untouched := 0, 0
	for k := 0; k < dst.Ext[2]; k++ {
		for j := 0; j < dst.Ext[1]; j++ {
			for i := 0; i < dst.Ext[0]; i++ {
				switch dst.At(i, j, k) {
				case 1:
					written++
				case -7:
					untouched++
				default:
					t.Fatalf("element (%d,%d,%d) = %v: double write or partial", i, j, k, dst.At(i, j, k))
				}
			}
		}
	}
	wantWritten := dom[0]*dom[1]*dom[2] - 6*6*6
	if written != wantWritten {
		t.Errorf("written %d elements, want %d", written, wantWritten)
	}
	if written+untouched != len(dst.Data) {
		t.Error("element accounting wrong")
	}
}

func TestShellPanicsOnExcessMargin(t *testing.T) {
	src := grid.New([3]int{8, 8, 8}, 2)
	dst := grid.New([3]int{8, 8, 8}, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	ApplyGridShellWorkers(dst, src, Star7(), 2, [3]int{4, 4, 4}, [3]int{8, 8, 8}, 0)
}
