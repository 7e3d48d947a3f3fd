package testutil

// Shrink minimizes a failing op list for a property test's report: it
// drops one op at a time, keeping each removal after which fails still
// holds, until no single op can go. The result is a sublist of ops.
func Shrink[T any](ops []T, fails func([]T) bool) []T {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(ops); i++ {
			cand := append(append([]T{}, ops[:i]...), ops[i+1:]...)
			if fails(cand) {
				ops = cand
				changed = true
				break
			}
		}
	}
	return ops
}
