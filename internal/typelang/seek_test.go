package typelang

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// linearSeek is the merge walk's original step: advance the cursor
// slot by slot while the slot sorts before name.
func linearSeek(fs []fieldAccum, i int, name string) int {
	for i < len(fs) && fs[i].name < name {
		i++
	}
	return i
}

// TestSeekFieldMatchesLinearWalk pins the galloping seek to the linear
// walk it replaces, on random sorted tables of every small size: from a
// cursor at the start, the middle, the end and a random slot, for names
// before the first slot, after the last, equal to each slot and between
// each pair of slots.
func TestSeekFieldMatchesLinearWalk(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for size := 0; size <= 70; size++ {
		for trial := 0; trial < 4; trial++ {
			// Names are even numbers, so an odd number sorts strictly
			// between two slots; a fixed width keeps string order numeric.
			nums := r.Perm(4 * (size + 1))[:size]
			slices.Sort(nums)
			fs := make([]fieldAccum, size)
			for k, v := range nums {
				fs[k].name = fmt.Sprintf("f%05d", 2*v+2)
			}
			probes := []string{"", "f00000", "f99999", "g"}
			for k := range fs {
				probes = append(probes, fs[k].name, fs[k].name[:len(fs[k].name)-1]+"1", fs[k].name+"\x00")
			}
			cursors := []int{0, size / 2, size}
			if size > 0 {
				cursors = append(cursors, r.Intn(size))
			}
			for _, i := range cursors {
				for _, name := range probes {
					if got, want := seekField(fs, i, name), linearSeek(fs, i, name); got != want {
						t.Fatalf("table %d slots, cursor %d, name %q: seekField = %d, linear walk = %d", size, i, name, got, want)
					}
				}
			}
		}
	}
}

// TestSeekFieldDenseWalkIsLinear checks the other half of the seek's
// contract: merging a record whose fields are every slot of the table,
// in order, costs one comparison per field, as the linear walk did.
func TestSeekFieldDenseWalkIsLinear(t *testing.T) {
	fs := make([]fieldAccum, 1000)
	for k := range fs {
		fs[k].name = fmt.Sprintf("f%04d", k)
	}
	_, seeks, cmps := ProbeWork(func() {
		i := 0
		for k := range fs {
			if i = seekField(fs, i, fs[k].name); i != k {
				t.Fatalf("seek for slot %d landed on %d", k, i)
			}
			i++
		}
	})
	if cmps != seeks {
		t.Errorf("dense walk: %d comparisons for %d seeks, want one per seek", cmps, seeks)
	}
}
