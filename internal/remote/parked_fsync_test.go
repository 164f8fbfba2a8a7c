package remote

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// fsyncPark, as a syncHookFS hook, makes every fsync (file and
// directory) arriving once armed wait until the test unparks it.
type fsyncPark struct {
	armed        atomic.Bool
	once, opened sync.Once
	parked       chan struct{} // closed when the first armed fsync arrives
	release      chan struct{} // closed (by unpark) to let fsyncs return
}

func (p *fsyncPark) unpark() { p.opened.Do(func() { close(p.release) }) }

func (p *fsyncPark) park() {
	if p.armed.Load() {
		p.once.Do(func() { close(p.parked) })
		<-p.release
	}
}

// TestReadersProgressWhileWriterParkedInFsync is the MVCC read
// contract as a count (it replaces the reader-latency harness): with
// one durable update in flight and parked inside its fsync, 4 readers
// each complete 25 verified queries before the fsync is allowed to
// return; only then does the update ack, and its value reads back. In
// the wal row the writer waits on its WAL group fsync, its batch in
// flight (the owner's update lock is not held across the send); in the
// checkpoint row every update checkpoints, so it is parked while also
// holding the service's per-database update lock. Neither may be on
// the query path. The timeouts only
// bound how long a failure takes to report.
func TestReadersProgressWhileWriterParkedInFsync(t *testing.T) {
	const readers, perReader = 4, 25
	const hang = 2 * time.Minute
	for name, checkpointEvery := range map[string]int{"wal": 0, "checkpoint": 1} {
		t.Run(name, func(t *testing.T) {
			doc, err := xmltree.ParseString(hospitalXML)
			if err != nil {
				t.Fatal(err)
			}
			disk := &fsyncPark{parked: make(chan struct{}), release: make(chan struct{})}
			sys, _ := durableOwner(t, doc, scs, PersistOptions{FS: syncHookFS{hook: disk.park}, CheckpointEvery: checkpointEvery})
			// Registered after the service's own cleanup, so it runs first:
			// a failing run must not leave requests parked under ts.Close.
			t.Cleanup(disk.unpark)
			const target = "//patient[pname='Matt']/treat[1]/disease"

			disk.armed.Store(true)
			acked := make(chan error, 1)
			go func() {
				n, err := sys.UpdateLeafValues(target, "cholera")
				if err == nil && n != 1 {
					err = errShape{n}
				}
				acked <- err
			}()
			select {
			case <-disk.parked:
			case err := <-acked:
				t.Fatalf("update returned (err=%v) without reaching an fsync", err)
			case <-time.After(hang):
				t.Fatal("update never reached its fsync")
			}

			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				go func() {
					for i := 0; i < perReader; i++ {
						nodes, _, _, err := sys.Query("//patient/pname")
						if err == nil && len(nodes) != 2 {
							err = errShape{len(nodes)}
						}
						if err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for r := 0; r < readers; r++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Errorf("reader beside the parked writer: %v", err)
					}
				case err := <-acked:
					t.Fatalf("update acked (err=%v) while its fsync was still parked", err)
				case <-time.After(hang):
					t.Fatal("readers made no progress while the writer was parked in fsync")
				}
			}

			disk.unpark()
			select {
			case err := <-acked:
				if err != nil {
					t.Fatalf("update after release: %v", err)
				}
			case <-time.After(hang):
				t.Fatal("update never acked after its fsync returned")
			}
			nodes, _, _, err := sys.Query(target)
			if err != nil {
				t.Fatal(err)
			}
			if got := core.ResultStrings(nodes); len(got) != 1 || got[0] != "<disease>cholera</disease>" {
				t.Errorf("acked update reads back as %v", got)
			}
		})
	}
}
