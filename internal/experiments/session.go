package experiments

import (
	"context"

	"exterminator/internal/engine"
	"exterminator/internal/mutator"
)

// run drives one engine session of prog to completion with the seeds
// every experiment here is measured with: heap seed heapSeed (zero means
// 0x5eed) and program seed 0x9106.
func run(mode engine.Mode, prog mutator.Program, heapSeed uint64, opts ...engine.Option) *engine.Result {
	if heapSeed == 0 {
		heapSeed = 0x5eed
	}
	opts = append([]engine.Option{engine.WithMode(mode), engine.WithSeeds(heapSeed, 0x9106)}, opts...)
	sess, err := engine.New(engine.Batch(prog), opts...)
	if err != nil {
		panic("experiments: " + err.Error()) // the options are fixed in code
	}
	res, _ := sess.Run(context.Background())
	return res
}
