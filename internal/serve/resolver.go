package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"

	er "repro"
)

// Delta-scoped collection resolution: each collection entry keeps a
// resident er.Collection, built from every record by its first resolve.
// Every record mutation marks its ID dirty, on the live path and during
// replay alike; a later resolve catches the resolver up by applying the
// current state of each dirty ID — an upsert, or a delete once the record
// is gone — and then re-fuses only the candidate-graph components those
// records touch.
//
// Catching up by record state rather than by mutation history is exact:
// the er.Collection's result is a pure function of its record set and the
// default options (per-component fusion semantics — see er.Collection), so
// responses stay deterministic across restarts and mutation orderings.
// The resolver is advisory state: never journaled, and a stale entry —
// new, restored or replayed after a restart, grown more dirty IDs than
// records, or cut short by a panic mid-sync — starts a fresh one.

// recordChange is one record's current state as a sync applies it: an
// upsert of rec, or a delete when the record is gone.
type recordChange struct {
	id      string
	rec     colRecord
	deleted bool
}

// resolverOptions are the fixed pipeline options the resolvers run under:
// the defaults, the server's per-job worker budget, and the shared
// snapshot cache (so component results survive resolver rebuilds and are
// shared across collections).
func (s *Server) resolverOptions() er.Options {
	o := er.DefaultOptions()
	o.Workers = s.opts.WorkersPerJob
	o.Snapshots = s.snapshots
	return o
}

// takeChanges hands col's resolver what it must apply to reach the current
// records, in ascending ID order, and resets the dirty state: every record
// when fresh is set, otherwise the dirty IDs. ok is false once col is no
// longer the collection stored under name (dropped, perhaps recreated).
// The caller holds col.mu.
func (c *colStore) takeChanges(name string, col *collection) (changes []recordChange, fresh, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cols[name] != col {
		return nil, false, false
	}
	fresh = col.stale || col.resolver == nil
	if fresh {
		for _, id := range col.sortedIDs() {
			changes = append(changes, recordChange{id: id, rec: col.records[id]})
		}
	} else {
		for id := range col.dirty {
			rec, live := col.records[id]
			changes = append(changes, recordChange{id: id, rec: rec, deleted: !live})
		}
		sort.Slice(changes, func(i, j int) bool { return changes[i].id < changes[j].id })
	}
	col.dirty, col.stale = nil, false
	return changes, fresh, true
}

// resolveCollectionDelta is the delta-scoped job body for
// POST /collections/{name}/resolve without option overrides: catch the
// collection's resolver up to the current records, then resolve
// incrementally.
func (s *Server) resolveCollectionDelta(ctx context.Context, name string) (*er.Result, error) {
	s.cols.mu.RLock()
	col := s.cols.cols[name]
	s.cols.mu.RUnlock()
	if col == nil {
		return nil, fmt.Errorf("%w: collection %q was dropped", er.ErrNoRecords, name)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	changes, fresh, ok := s.cols.takeChanges(name, col)
	if !ok {
		return nil, fmt.Errorf("%w: collection %q was dropped", er.ErrNoRecords, name)
	}
	// The dirty IDs are taken: a sync cut short by a panic must not leave
	// a resolver missing them behind.
	synced := false
	defer func() {
		if !synced {
			s.cols.mu.Lock()
			col.dirty, col.stale = nil, true
			s.cols.mu.Unlock()
		}
	}()
	if fresh {
		r, err := er.NewCollection(s.resolverOptions())
		if err != nil {
			return nil, err
		}
		col.resolver = r
		s.c.resolverRebuilds.Add(1)
	}
	// Catching the resolver up is part of the serialized delta resolve: the
	// mutations reach er.Collection under the same per-collection mutex as
	// the ResolveContext call below.
	for _, ch := range changes {
		if ch.deleted {
			//lint:ignore lockhold er.Collection is not safe for concurrent use; a rebuild fallback's worker fan-out is bounded by the collection
			col.resolver.Delete(ch.id)
		} else {
			//lint:ignore lockhold er.Collection is not safe for concurrent use; a rebuild fallback's worker fan-out is bounded by the collection
			col.resolver.Upsert(ch.id, er.Record{Text: ch.rec.Text, Source: ch.rec.Source, Entity: ch.rec.Entity})
		}
	}
	s.c.deltaResolves.Add(1)
	//lint:ignore lockhold the per-collection resolve mutex IS the serialization point: er.Collection is not safe for concurrent use, so concurrent delta resolves of the same collection must queue here; other collections and batch jobs never touch this lock
	res, err := col.resolver.ResolveContext(ctx)
	// ResolveContext reports its own panics as ErrInternal; the resident
	// state they interrupted is suspect, so start over from every record.
	synced = !errors.Is(err, er.ErrInternal)
	return res, err
}
