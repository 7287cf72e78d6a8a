package lint

import (
	"go/ast"
	"go/token"
)

// This file builds per-function control-flow graphs from go/ast, the
// substrate of the flow-aware analyzers (lockhold, goleak, fsyncorder).
// The x/tools CFG package is unavailable by design (the lint suite runs
// anywhere the repository compiles), so the builder lives here.
//
// Shape: every block holds a sequence of "items" — simple statements and
// the condition/tag expressions of decomposed control statements — that
// execute in order, plus successor edges. Structured statements are
// decomposed (if/for/range/switch/type-switch/select, labeled break and
// continue); returns route to a single synthetic exit block; deferred
// calls are collected separately and interpreted at exit, which is what
// makes the defer-unlock idiom come out right in the lock lattice.

// block is one basic block of a cfg.
type block struct {
	id    int
	kind  string // human label for tests and debug output
	items []ast.Node
	succs []*block
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	blocks []*block
	entry  *block
	exit   *block
	// defers holds every deferred call in source order. They are not items:
	// their effects (the canonical one being mu.Unlock) apply at exit.
	defers []*ast.CallExpr
	// selectComms marks the communication statements of select clauses.
	// They appear as items in their clause blocks so their sub-expressions
	// are scanned, but a chosen clause's send/receive is ready by
	// definition and must not count as a blocking channel operation.
	selectComms map[ast.Node]bool
	// goStmts marks go-statement items; analyzers skip their payload when
	// reasoning about what the *current* goroutine does.
	goStmts map[ast.Node]bool
}

// cfgScope is one break/continue target frame.
type cfgScope struct {
	label string
	brk   *block
	cont  *block // nil for switch/select frames
}

type cfgBuilder struct {
	c      *cfg
	cur    *block // nil after a terminator (return/break/continue)
	scopes []cfgScope
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	c := &cfg{selectComms: make(map[ast.Node]bool), goStmts: make(map[ast.Node]bool)}
	b := &cfgBuilder{c: c}
	c.entry = b.newBlock("entry")
	c.exit = b.newBlock("exit")
	b.cur = c.entry
	b.stmts(body.List, "")
	if b.cur != nil {
		b.edge(b.cur, c.exit)
	}
	return c
}

func (b *cfgBuilder) newBlock(kind string) *block {
	blk := &block{id: len(b.c.blocks), kind: kind}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// here returns the current block, reviving a dead position (after a
// terminator) as an unreachable block so later items still have a home.
func (b *cfgBuilder) here() *block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) item(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.here()
	blk.items = append(blk.items, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt, label string) {
	for _, s := range list {
		b.stmt(s, label)
		label = ""
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmts(x.List, "")
	case *ast.LabeledStmt:
		b.stmt(x.Stmt, x.Label.Name)
	case *ast.ExprStmt:
		b.item(x.X)
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.SendStmt:
		b.item(s)
	case *ast.GoStmt:
		b.item(s)
		b.c.goStmts[s] = true
	case *ast.DeferStmt:
		b.c.defers = append(b.c.defers, x.Call)
	case *ast.ReturnStmt:
		b.item(s)
		b.edge(b.here(), b.c.exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(x)
	case *ast.IfStmt:
		b.ifStmt(x)
	case *ast.ForStmt:
		b.forStmt(x, label)
	case *ast.RangeStmt:
		b.rangeStmt(x, label)
	case *ast.SwitchStmt:
		b.switchStmt(x.Init, x.Tag, nil, x.Body, label, "switch")
	case *ast.TypeSwitchStmt:
		b.switchStmt(x.Init, nil, x.Assign, x.Body, label, "typeswitch")
	case *ast.SelectStmt:
		b.selectStmt(x, label)
	case *ast.EmptyStmt:
	default:
		// Anything unmodeled (e.g. a bare goto target) is recorded as an
		// opaque item so its sub-expressions are still scanned.
		b.item(s)
	}
}

func (b *cfgBuilder) branch(x *ast.BranchStmt) {
	label := ""
	if x.Label != nil {
		label = x.Label.Name
	}
	switch x.Tok {
	case token.BREAK:
		for i := len(b.scopes) - 1; i >= 0; i-- {
			sc := b.scopes[i]
			if label == "" || sc.label == label {
				b.edge(b.here(), sc.brk)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.CONTINUE:
		for i := len(b.scopes) - 1; i >= 0; i-- {
			sc := b.scopes[i]
			if sc.cont != nil && (label == "" || sc.label == label) {
				b.edge(b.here(), sc.cont)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		// Rare in this codebase; model conservatively as an exit edge so
		// the may-analyses stay sound for everything before the jump.
		b.edge(b.here(), b.c.exit)
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt.
	}
}

func (b *cfgBuilder) ifStmt(x *ast.IfStmt) {
	b.item(x.Init)
	b.item(x.Cond)
	cond := b.here()
	join := b.newBlock("if.join")
	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmts(x.Body.List, "")
	if b.cur != nil {
		b.edge(b.cur, join)
	}
	if x.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(x.Else, "")
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	} else {
		b.edge(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(x *ast.ForStmt, label string) {
	b.item(x.Init)
	head := b.newBlock("for.head")
	b.edge(b.here(), head)
	b.cur = head
	b.item(x.Cond)
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	b.edge(head, body)
	if x.Cond != nil {
		b.edge(head, after)
	}
	cont := head
	var post *block
	if x.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.scopes = append(b.scopes, cfgScope{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmts(x.Body.List, "")
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	if post != nil {
		b.cur = post
		b.item(x.Post)
		b.edge(post, head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(x *ast.RangeStmt, label string) {
	b.item(x.X) // the ranged expression is evaluated once, before the loop
	head := b.newBlock("range.head")
	b.edge(b.here(), head)
	// The RangeStmt node itself is the head item: analyzers use it to spot
	// range-over-channel (a blocking receive per iteration) without
	// re-walking the body, which lives in its own blocks.
	head.items = append(head.items, x)
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	b.edge(head, body)
	b.edge(head, after)
	b.scopes = append(b.scopes, cfgScope{label: label, brk: after, cont: head})
	b.cur = body
	b.stmts(x.Body.List, "")
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

// switchStmt decomposes expression and type switches: one block per case
// clause, all fed from the head; fallthrough chains clause bodies.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label, kind string) {
	b.item(init)
	b.item(tag)
	b.item(assign)
	head := b.here()
	after := b.newBlock(kind + ".after")
	b.scopes = append(b.scopes, cfgScope{label: label, brk: after})
	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.item(e)
		}
		list := cc.Body
		fallsThrough := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				list = list[:n-1]
			}
		}
		b.stmts(list, "")
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(x *ast.SelectStmt, label string) {
	// The SelectStmt node itself is an item in the head block: that is
	// where "does this select block?" is judged (no default ⇒ it can park
	// the goroutine). Clause bodies are decomposed normally.
	b.item(x)
	head := b.here()
	after := b.newBlock("select.after")
	b.scopes = append(b.scopes, cfgScope{label: label, brk: after})
	for _, cs := range x.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock("select.case")
		b.edge(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.item(cc.Comm)
			b.c.selectComms[cc.Comm] = true
		}
		b.stmts(cc.Body, "")
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	// A clause-free select{} parks forever: after keeps no predecessors and
	// whatever follows is analyzed as unreachable.
	b.cur = after
}

// selectHasDefault reports whether a select statement has a default clause
// (which makes the select itself non-blocking).
func selectHasDefault(x *ast.SelectStmt) bool {
	for _, cs := range x.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
