package registry

// Queued returns how many requests wait in b's channel. QueueDepth counts a
// request just before its send, so tests read both to know that a backlog
// has fully entered the queue before they free an engine.
func (b *Batcher) Queued() int { return len(b.reqs) }
