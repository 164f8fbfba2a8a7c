package client

import (
	"fmt"

	"repro/internal/wire"
)

// streamBacklog bounds how many undecrypted blocks may queue between
// the stream decoder and the decrypt worker. A full queue blocks the
// receive loop — that backpressure is what keeps a fast sender from
// ballooning client memory with ciphertext the worker hasn't reached
// yet.
const streamBacklog = 32

// StreamDecryptor overlaps block decryption with a streamed answer's
// network receive: it implements wire.BlockSink, handing each
// ciphertext to one worker goroutine the moment its frame decodes, so
// by the time the stream trailer verifies, most plaintexts are
// already done. The worker is that overlap, not a width: a query
// decrypts on exactly one goroutine besides its receive loop.
//
// The transport may restart the stream (a retry after a torn read);
// each Reset discards everything the previous attempt delivered and
// starts a fresh worker. Collect then releases the results only when
// they provably belong to the answer the transport finally returned —
// each recorded ciphertext must be the very slice the answer carries
// (pointer identity, not byte equality), and coverage must be exact.
// Anything else (an answer from another attempt, a half-fed one)
// reports ok=false and the caller decrypts the answer itself, so a
// wrong or partial result can never surface.
//
// All methods are called from one goroutine at a time (the transport
// attempt loop, then the owner's query or update read); only the
// worker runs beside it. The worker alone writes out and err until it
// exits, and they are read only after drain has waited for that.
type StreamDecryptor struct {
	c   *Client
	cur *streamAttempt
}

type streamAttempt struct {
	tasks chan streamTask
	done  chan struct{} // closed when the worker exits
	out   map[int]streamBlock
	err   error
}

type streamTask struct {
	id int
	ct []byte
}

type streamBlock struct {
	ct []byte // the ciphertext slice as received (identity-checked in Collect)
	pt []byte
}

// NewStreamDecryptor returns a decryptor feeding this client's key
// set; no worker starts until the first Reset. The caller must Close
// it (Collect also finalizes), or an unfinished attempt's worker
// leaks.
func (c *Client) NewStreamDecryptor() *StreamDecryptor {
	return &StreamDecryptor{c: c}
}

// Reset implements wire.BlockSink: it discards any previous attempt's
// results and starts a fresh worker for the stream that is about to
// arrive.
func (sd *StreamDecryptor) Reset() {
	sd.drain()
	at := &streamAttempt{
		tasks: make(chan streamTask, streamBacklog),
		done:  make(chan struct{}),
		out:   map[int]streamBlock{},
	}
	go func() {
		defer close(at.done)
		for t := range at.tasks {
			pt, err := sd.c.keys.DecryptBlock(t.ct)
			if err != nil {
				if at.err == nil {
					at.err = fmt.Errorf("client: block %d: %w", t.id, err)
				}
				continue
			}
			at.out[t.id] = streamBlock{ct: t.ct, pt: pt}
		}
	}()
	sd.cur = at
}

// Block implements wire.BlockSink: it hands one received ciphertext
// to the decrypt worker, blocking when the backlog is full. A Block
// without a preceding Reset is dropped (Collect will then report
// ok=false, and the caller's own decryption pass surfaces whatever is
// wrong with the answer).
func (sd *StreamDecryptor) Block(id int, ct []byte) {
	if sd.cur == nil {
		return
	}
	sd.cur.tasks <- streamTask{id: id, ct: ct}
}

// Collect finalizes the last attempt and returns its plaintexts —
// keyed by block ID, exactly as DecryptBlocks would — but only when
// they are precisely the blocks of ans: full coverage, and every
// recorded ciphertext is the same slice ans carries. ok=false means
// the caller must decrypt ans itself; any decryption error the
// worker hit also surfaces that way (the caller's sequential pass
// rediscovers and reports it).
func (sd *StreamDecryptor) Collect(ans *wire.Answer) (map[int][]byte, bool) {
	at := sd.cur
	if at == nil || ans == nil {
		return nil, false
	}
	sd.drain()
	if at.err != nil || len(at.out) != len(ans.BlockIDs) {
		return nil, false
	}
	out := make(map[int][]byte, len(at.out))
	for i, id := range ans.BlockIDs {
		got, ok := at.out[id]
		if !ok || !sameSlice(got.ct, ans.Blocks[i]) {
			return nil, false
		}
		out[id] = got.pt
	}
	return out, true
}

// Close discards any unfinished attempt, stopping its worker. Safe
// to call repeatedly and after Collect.
func (sd *StreamDecryptor) Close() { sd.drain() }

// drain closes the current attempt's task channel and waits for its
// worker to exit.
func (sd *StreamDecryptor) drain() {
	if sd.cur == nil {
		return
	}
	close(sd.cur.tasks)
	<-sd.cur.done
	sd.cur = nil
}

// sameSlice reports that a and b are the same backing bytes —
// identity, not equality. Within one process this is exactly "this
// plaintext was decrypted from this answer's own ciphertext", which
// is what lets Collect trust work done before the answer was chosen.
func sameSlice(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}
