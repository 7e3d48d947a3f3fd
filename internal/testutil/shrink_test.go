package testutil

import (
	"slices"
	"testing"
)

func TestShrinkKeepsAMinimalFailingSublist(t *testing.T) {
	// The failure needs both a 3 and a 7, in that order.
	fails := func(ops []int) bool {
		i := slices.Index(ops, 3)
		return i >= 0 && slices.Contains(ops[i:], 7)
	}
	got := Shrink([]int{1, 7, 3, 5, 3, 9, 7, 2}, fails)
	if !slices.Equal(got, []int{3, 7}) {
		t.Fatalf("Shrink = %v, want [3 7]", got)
	}
	if got := Shrink([]int{1, 2}, func([]int) bool { return false }); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("a passing list must come back unchanged, got %v", got)
	}
}
