package pipeline

import (
	"context"
	"fmt"
)

// RunStepped is RunCtx without the quiet-cycle skip: one Step per
// simulated cycle. It is the lockstep reference the skipping RunCtx is
// held to, counter for counter, event for event.
func (c *Core) RunStepped(ctx context.Context, maxInstructions, maxCycles uint64) error {
	lastRetired := c.Stats.Retired
	lastProgress := c.cycle
	for !c.finished && c.Stats.Retired < maxInstructions && c.cycle < maxCycles {
		if ctx != nil && c.cycle&ctxPollMask == 0 {
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			default:
			}
		}
		c.Step()
		if c.Stats.Retired != lastRetired {
			lastRetired = c.Stats.Retired
			lastProgress = c.cycle
		} else if c.cycle-lastProgress > livelockCycles {
			return fmt.Errorf("pipeline: livelock at cycle %d (pc=%d, rob=%d)", c.cycle, c.fetchPC, c.robLen)
		}
	}
	return nil
}

// CtxPollCycles is how many cycles apart RunCtx polls its context.
const CtxPollCycles = ctxPollMask + 1
