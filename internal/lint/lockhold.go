package lint

import (
	"fmt"
	"go/ast"
)

// lockHoldPackages is the scope of the lock-hold analyzer: the stateful
// concurrent subsystems whose locks sit on request paths. Kernel packages
// hold no locks; the breadth there belongs to determinism.
var lockHoldPackages = map[string]bool{
	"repro/internal/serve":  true,
	"repro/internal/wal":    true,
	"repro/internal/engine": true,
	// The client guards its shared rand.Rand with a mutex on the retry
	// path; a sleep or network call under that lock would serialize every
	// concurrent request's backoff.
	"repro/internal/client": true,
	// The index itself is single-writer, but scoping it keeps any future
	// internal locking honest — a blocking call under an index lock would
	// stall every collection resolve behind it.
	"repro/internal/index": true,
}

// LockHold reports blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: file and directory fsyncs, durability waits,
// channel operations, network I/O, and sleeps — the exact class of bug
// the PR 6 review caught by hand (an fsync under the store lock turns
// every concurrent reader into a disk wait). Facts propagate through
// module-internal calls, so holding a lock across a call whose callee
// eventually fsyncs is reported at the call site. A reasoned
// //lint:ignore lockhold on the blocking primitive itself blesses that
// operation for every caller (the group-commit barrier in the WAL is the
// canonical case) — one reviewed reason, no suppression cascade.
func LockHold() *Analyzer {
	return &Analyzer{
		Name:      "lockhold",
		Doc:       "no blocking operation (fsync, durability wait, channel op, network I/O, sleep) while a mutex is held",
		Packages:  lockHoldPackages,
		RunModule: lockHoldModule,
	}
}

func lockHoldModule(prog *program) []Finding {
	var out []Finding
	for _, fi := range prog.infos {
		p := fi.pkg
		walkHeld(p, fi.c, func(item ast.Node, held heldSet) {
			if len(held) == 0 {
				return
			}
			lock := held.sortedIDs()[0]
			acq := p.Fset.Position(held[lock])
			for _, op := range scanItem(p, fi.c, item) {
				switch {
				case op.blockDesc != "":
					out = append(out, Finding{Analyzer: "lockhold", Pos: p.Fset.Position(op.pos),
						Message: fmt.Sprintf("%s while %s is held (acquired at %s:%d); move the blocking operation outside the lock",
							op.blockDesc, lock, shortFile(acq.Filename), acq.Line)})
				case op.callee != nil:
					g, ok := prog.funcs[op.callee]
					if !ok || g.blocking == nil {
						continue
					}
					root := g.blocking.rootPos
					out = append(out, Finding{Analyzer: "lockhold", Pos: p.Fset.Position(op.pos),
						Message: fmt.Sprintf("call to %s blocks (%s at %s:%d) while %s is held (acquired at %s:%d)",
							op.calleeStr, g.blocking.desc, shortFile(root.Filename), root.Line,
							lock, shortFile(acq.Filename), acq.Line)})
				}
			}
		})
	}
	return out
}
