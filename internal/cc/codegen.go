package cc

import (
	"fmt"
	"sort"
	"strings"
)

// Options tune code generation.
type Options struct {
	// SetccBooleans materializes comparison results with setcc+movzx
	// instead of the branch-based 0/1 idiom. This is the ablation
	// DESIGN.md calls out: branch-based materialization (the default,
	// matching the paper's disassembly of gcc 2.x output) maximizes the
	// conditional-branch density of the authentication section; setcc
	// materialization (gcc 3+ style) reduces it.
	SetccBooleans bool
	// DupCompares hardens every conditional branch with a duplicated
	// comparison (arXiv 1803.08359 §4.1): after the branch decides, the
	// landed path re-executes the compare and jumps to a trap (int3) if
	// the second evaluation disagrees with the direction taken. A fault
	// that corrupts the first cmp/jcc — flipping the condition, turning
	// the jcc into another instruction, or redirecting it — lands on a
	// path whose recheck contradicts it and converts the silent wrong
	// turn into a detected crash.
	DupCompares bool
	// EncodedBranches hardens every conditional branch by carrying the
	// condition as a redundantly encoded constant (arXiv 1803.08359
	// §4.2): the comparison result is widened to a 0/0xFFFFFFFF mask and
	// XORed with EncFalse, so a healthy condition is exactly EncFalse or
	// EncTrue (bitwise complements, Hamming distance 32). The branch
	// dispatches on the encoded value and any third value — the result
	// of a corrupted compare, setcc, mask, or immediate — traps.
	EncodedBranches bool
	// HardenFuncs restricts DupCompares/EncodedBranches to a
	// comma-separated list of function names; empty hardens every
	// function. Restricting hardening to one function rebuilds an image
	// whose other functions keep byte-identical code sections — the
	// single-function-delta case the incremental campaign cache keys on.
	HardenFuncs string
}

// hardens reports whether branch hardening applies to function name under
// the HardenFuncs restriction.
func (o Options) hardens(name string) bool {
	if o.HardenFuncs == "" {
		return true
	}
	for _, f := range strings.Split(o.HardenFuncs, ",") {
		if strings.TrimSpace(f) == name {
			return true
		}
	}
	return false
}

// EncFalse and EncTrue are the two valid states of an encoded branch
// condition under Options.EncodedBranches. They are bitwise complements,
// so no single-bit (or anything short of 32-bit) corruption of one yields
// the other.
const (
	EncFalse = 0x3CC3A55A
	EncTrue  = ^EncFalse & 0xFFFFFFFF
)

// Compile parses MiniC source and generates assembly for internal/asm.
// The output contains .text with one .func block per function, .rodata
// with string literals, and .data/.bss for globals. It does not emit a
// _start entry point; the runtime (internal/rt) provides one.
func Compile(src string) (string, error) {
	return CompileWithOptions(src, Options{})
}

// CompileWithOptions is Compile with explicit codegen options.
func CompileWithOptions(src string, opts Options) (string, error) {
	prog, err := Parse(src)
	if err != nil {
		return "", err
	}
	return GenerateWithOptions(prog, opts)
}

// builtin syscall arities.
var builtins = map[string]int{
	"sys_read":  3,
	"sys_write": 3,
	"sys_exit":  1,
}

// localVar is one stack-frame slot.
type localVar struct {
	off int // EBP-relative offset
	typ *Type
}

// gen is the code generator state.
type gen struct {
	b       strings.Builder
	opts    Options
	globals map[string]*VarDecl
	funcs   map[string]*FuncDecl
	strs    map[string]string // literal value -> label
	strN    int
	labelN  int

	// current function state
	fn     *FuncDecl
	locals map[string]localVar
	frame  int
	breaks []string
	conts  []string
	retLbl string
	// trapUsed records that a hardened branch referenced the current
	// function's trap label, so the epilogue emits the trap block.
	trapUsed bool
}

// GenerateWithOptions emits assembly for a parsed program.
func GenerateWithOptions(prog *Program, opts Options) (string, error) {
	g := &gen{
		opts:    opts,
		globals: make(map[string]*VarDecl),
		funcs:   make(map[string]*FuncDecl),
		strs:    make(map[string]string),
	}
	for _, v := range prog.Globals {
		if _, dup := g.globals[v.Name]; dup {
			return "", cerr(v.Line, "duplicate global %q", v.Name)
		}
		g.globals[v.Name] = v
	}
	for _, f := range prog.Funcs {
		if _, dup := g.funcs[f.Name]; dup {
			return "", cerr(f.Line, "duplicate function %q", f.Name)
		}
		if _, clash := g.globals[f.Name]; clash {
			return "", cerr(f.Line, "function %q collides with a global", f.Name)
		}
		g.funcs[f.Name] = f
	}

	g.emit(".text")
	for _, f := range prog.Funcs {
		if err := g.genFunc(f); err != nil {
			return "", err
		}
	}
	// Globals may reference new string literals, so emit them first and the
	// accumulated .rodata literals afterwards (section order in the
	// assembly text is immaterial).
	if err := g.emitGlobals(prog.Globals); err != nil {
		return "", err
	}
	if err := g.emitStrings(); err != nil {
		return "", err
	}
	return g.b.String(), nil
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) label() string {
	g.labelN++
	return fmt.Sprintf(".L%d", g.labelN)
}

func (g *gen) strLabel(s string) string {
	if l, ok := g.strs[s]; ok {
		return l
	}
	g.strN++
	l := fmt.Sprintf(".LC%d", g.strN)
	g.strs[s] = l
	return l
}

// ---- functions ----

func (g *gen) genFunc(f *FuncDecl) error {
	g.fn = f
	g.locals = make(map[string]localVar)
	g.frame = 0
	g.retLbl = fmt.Sprintf(".Lret_%s", f.Name)
	g.trapUsed = false

	// Parameters: [ebp+8], [ebp+12], ... Char parameters are promoted.
	off := 8
	for _, p := range f.Params {
		t := p.Type
		if t.Kind == TypeChar {
			t = typeInt
		}
		if _, dup := g.locals[p.Name]; dup {
			return cerr(f.Line, "duplicate parameter %q", p.Name)
		}
		g.locals[p.Name] = localVar{off: off, typ: t}
		off += 4
	}
	// Locals: collect every declaration in the body, assign negative
	// offsets. MiniC forbids shadowing within a function.
	if err := g.collectLocals(f.Body); err != nil {
		return err
	}

	g.emit(".func %s", f.Name)
	g.emit("%s:", f.Name)
	g.emit("\tpush ebp")
	g.emit("\tmov ebp, esp")
	if g.frame > 0 {
		g.emit("\tsub esp, %d", g.frame)
	}
	if err := g.genStmt(f.Body); err != nil {
		return err
	}
	g.emit("%s:", g.retLbl)
	g.emit("\tleave")
	g.emit("\tret")
	if g.trapUsed {
		// The countermeasure trap: a detected-disagreement branch lands
		// here and raises #BP (SIGTRAP), converting the silent wrong turn
		// into a system detection.
		g.emit("%s:", g.trapLabel())
		g.emit("\tint3")
	}
	g.emit(".endfunc")
	return nil
}

// trapLabel names the current function's countermeasure trap block and
// marks it referenced, so genFunc emits it after the epilogue.
func (g *gen) trapLabel() string {
	g.trapUsed = true
	return fmt.Sprintf(".Ltrap_%s", g.fn.Name)
}

func (g *gen) collectLocals(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		for _, sub := range st.Stmts {
			if err := g.collectLocals(sub); err != nil {
				return err
			}
		}
	case *DeclStmt:
		if _, dup := g.locals[st.Name]; dup {
			return cerr(st.Line, "duplicate local %q (MiniC forbids shadowing)", st.Name)
		}
		size := st.Type.Size()
		size = (size + 3) &^ 3
		g.frame += size
		g.locals[st.Name] = localVar{off: -g.frame, typ: st.Type}
	case *IfStmt:
		if err := g.collectLocals(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return g.collectLocals(st.Else)
		}
	case *WhileStmt:
		return g.collectLocals(st.Body)
	case *ForStmt:
		return g.collectLocals(st.Body)
	case *SwitchStmt:
		for _, cs := range st.Cases {
			for _, sub := range cs.Body {
				if err := g.collectLocals(sub); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ---- statements ----

func (g *gen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		for _, sub := range st.Stmts {
			if err := g.genStmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		if st.Init == nil {
			return nil
		}
		if st.Type.Kind == TypeArray {
			return cerr(st.Line, "local array %q cannot have an initializer", st.Name)
		}
		lv := g.locals[st.Name]
		if _, err := g.genExpr(st.Init); err != nil {
			return err
		}
		g.storeTo(fmt.Sprintf("[ebp%+d]", lv.off), lv.typ)
		return nil
	case *ExprStmt:
		_, err := g.genExpr(st.X)
		return err
	case *IfStmt:
		elseLbl := g.label()
		if err := g.genCondJump(st.Cond, elseLbl, false); err != nil {
			return err
		}
		if err := g.genStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			endLbl := g.label()
			g.emit("\tjmp %s", endLbl)
			g.emit("%s:", elseLbl)
			if err := g.genStmt(st.Else); err != nil {
				return err
			}
			g.emit("%s:", endLbl)
		} else {
			g.emit("%s:", elseLbl)
		}
		return nil
	case *WhileStmt:
		condLbl := g.label()
		endLbl := g.label()
		g.emit("%s:", condLbl)
		if err := g.genCondJump(st.Cond, endLbl, false); err != nil {
			return err
		}
		g.breaks = append(g.breaks, endLbl)
		g.conts = append(g.conts, condLbl)
		if err := g.genStmt(st.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		g.emit("\tjmp %s", condLbl)
		g.emit("%s:", endLbl)
		return nil
	case *ForStmt:
		if st.Init != nil {
			if _, err := g.genExpr(st.Init); err != nil {
				return err
			}
		}
		condLbl := g.label()
		postLbl := g.label()
		endLbl := g.label()
		g.emit("%s:", condLbl)
		if st.Cond != nil {
			if err := g.genCondJump(st.Cond, endLbl, false); err != nil {
				return err
			}
		}
		g.breaks = append(g.breaks, endLbl)
		g.conts = append(g.conts, postLbl)
		if err := g.genStmt(st.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		g.emit("%s:", postLbl)
		if st.Post != nil {
			if _, err := g.genExpr(st.Post); err != nil {
				return err
			}
		}
		g.emit("\tjmp %s", condLbl)
		g.emit("%s:", endLbl)
		return nil
	case *SwitchStmt:
		return g.genSwitch(st)
	case *ReturnStmt:
		if st.X != nil {
			if _, err := g.genExpr(st.X); err != nil {
				return err
			}
		}
		g.emit("\tjmp %s", g.retLbl)
		return nil
	case *BreakStmt:
		if len(g.breaks) == 0 {
			return cerr(st.Line, "break outside loop")
		}
		g.emit("\tjmp %s", g.breaks[len(g.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(g.conts) == 0 {
			return cerr(st.Line, "continue outside loop")
		}
		g.emit("\tjmp %s", g.conts[len(g.conts)-1])
		return nil
	}
	return fmt.Errorf("cc: unknown statement %T", s)
}

// genSwitch lowers a C switch: evaluate once, compare-and-jump dispatch,
// bodies in order with fallthrough, break jumps to the end label.
func (g *gen) genSwitch(st *SwitchStmt) error {
	if _, err := g.genExpr(st.X); err != nil {
		return err
	}
	endLbl := g.label()
	caseLbls := make([]string, len(st.Cases))
	defaultLbl := endLbl
	for i, cs := range st.Cases {
		caseLbls[i] = g.label()
		if cs.Default {
			defaultLbl = caseLbls[i]
		}
	}
	for i, cs := range st.Cases {
		if cs.Default {
			continue
		}
		g.emit("\tcmp eax, %d", int32(cs.Value))
		g.emit("\tje %s", caseLbls[i])
	}
	g.emit("\tjmp %s", defaultLbl)
	g.breaks = append(g.breaks, endLbl)
	for i, cs := range st.Cases {
		g.emit("%s:", caseLbls[i])
		for _, sub := range cs.Body {
			if err := g.genStmt(sub); err != nil {
				return err
			}
		}
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.emit("%s:", endLbl)
	return nil
}

// ---- conditions ----

// relJcc maps comparison operators to (signed, unsigned) jcc mnemonics.
var relJcc = map[string][2]string{
	"==": {"je", "je"},
	"!=": {"jne", "jne"},
	"<":  {"jl", "jb"},
	">":  {"jg", "ja"},
	"<=": {"jle", "jbe"},
	">=": {"jge", "jae"},
}

// negJcc maps a jcc mnemonic to its negation.
var negJcc = map[string]string{
	"je": "jne", "jne": "je",
	"jl": "jge", "jge": "jl", "jg": "jle", "jle": "jg",
	"jb": "jae", "jae": "jb", "ja": "jbe", "jbe": "ja",
}

// condBranch emits the final compare-and-branch of a condition: jump to
// label when the flag-setting instruction cmp (a "cmp eax, ecx" or "test
// eax, eax" line) satisfies jcc, fall through otherwise. The plain shape
// is the two-instruction cmp+jcc; Options.DupCompares and
// Options.EncodedBranches substitute the hardened shapes from arXiv
// 1803.08359 (DupCompares wins if both are set). Both hardened shapes may
// clobber eax/ecx — condition consumers never rely on them afterwards.
func (g *gen) condBranch(cmp, jcc, label string) {
	harden := g.opts.hardens(g.fn.Name)
	switch {
	case g.opts.DupCompares && harden:
		// Branch, then re-evaluate the compare on whichever path was
		// taken; a disagreement between the two evaluations traps.
		ftLbl := g.label()
		trap := g.trapLabel()
		g.emit("\t%s", cmp)
		g.emit("\t%s %s", negJcc[jcc], ftLbl)
		g.emit("\t%s", cmp) // taken path: condition must still hold
		g.emit("\t%s %s", negJcc[jcc], trap)
		g.emit("\tjmp %s", label)
		g.emit("%s:", ftLbl)
		g.emit("\t%s", cmp) // fall-through path: must still not hold
		g.emit("\t%s %s", jcc, trap)
	case g.opts.EncodedBranches && harden:
		// Widen the condition to a 0/0xFFFFFFFF mask and XOR it into the
		// {EncFalse, EncTrue} code space; dispatch on the encoded value
		// and trap on anything outside it.
		trap := g.trapLabel()
		g.emit("\t%s", cmp)
		g.emit("\tset%s al", jcc[1:])
		g.emit("\tmovzx eax, al")
		g.emit("\tneg eax")
		g.emit("\txor eax, %d", encFalse)
		g.emit("\tcmp eax, %d", encTrue)
		g.emit("\tje %s", label)
		g.emit("\tcmp eax, %d", encFalse)
		g.emit("\tjne %s", trap)
	default:
		g.emit("\t%s", cmp)
		g.emit("\t%s %s", jcc, label)
	}
}

// encFalse and encTrue are the EncodedBranches constants as the int32
// immediates the assembler takes.
var (
	encFalse = int32(EncFalse)
	encTrue  = ^encFalse
)

// genCondJump emits code that jumps to label when the truth value of e
// equals whenTrue, and falls through otherwise. Comparisons compile to
// cmp+jcc; other expressions compile to the classic test eax,eax idiom.
func (g *gen) genCondJump(e Expr, label string, whenTrue bool) error {
	switch ex := e.(type) {
	case *IntLit:
		truth := ex.Value != 0
		if truth == whenTrue {
			g.emit("\tjmp %s", label)
		}
		return nil
	case *Unary:
		if ex.Op == "!" {
			return g.genCondJump(ex.X, label, !whenTrue)
		}
	case *Binary:
		if jccs, ok := relJcc[ex.Op]; ok {
			tx, ty, err := g.genOperandPair(ex.X, ex.Y)
			if err != nil {
				return err
			}
			unsigned := tx.IsPtrLike() || ty.IsPtrLike()
			jcc := jccs[0]
			if unsigned {
				jcc = jccs[1]
			}
			if !whenTrue {
				jcc = negJcc[jcc]
			}
			g.condBranch("cmp eax, ecx", jcc, label)
			return nil
		}
		switch ex.Op {
		case "&&":
			if whenTrue {
				out := g.label()
				if err := g.genCondJump(ex.X, out, false); err != nil {
					return err
				}
				if err := g.genCondJump(ex.Y, label, true); err != nil {
					return err
				}
				g.emit("%s:", out)
			} else {
				if err := g.genCondJump(ex.X, label, false); err != nil {
					return err
				}
				if err := g.genCondJump(ex.Y, label, false); err != nil {
					return err
				}
			}
			return nil
		case "||":
			if whenTrue {
				if err := g.genCondJump(ex.X, label, true); err != nil {
					return err
				}
				if err := g.genCondJump(ex.Y, label, true); err != nil {
					return err
				}
			} else {
				out := g.label()
				if err := g.genCondJump(ex.X, out, true); err != nil {
					return err
				}
				if err := g.genCondJump(ex.Y, label, false); err != nil {
					return err
				}
				g.emit("%s:", out)
			}
			return nil
		}
	}
	// General case: evaluate and test.
	if _, err := g.genExpr(e); err != nil {
		return err
	}
	jcc := "je"
	if whenTrue {
		jcc = "jne"
	}
	g.condBranch("test eax, eax", jcc, label)
	return nil
}

// genOperandPair evaluates X into eax and Y into ecx (in left-to-right
// order, via the stack so calls in Y cannot clobber X).
func (g *gen) genOperandPair(x, y Expr) (*Type, *Type, error) {
	tx, err := g.genExpr(x)
	if err != nil {
		return nil, nil, err
	}
	g.emit("\tpush eax")
	ty, err := g.genExpr(y)
	if err != nil {
		return nil, nil, err
	}
	g.emit("\tmov ecx, eax")
	g.emit("\tpop eax")
	return tx, ty, nil
}

// ---- expressions ----

// storeTo emits a store of eax to a memory operand of the given type.
func (g *gen) storeTo(memOperand string, t *Type) {
	if t.Kind == TypeChar {
		g.emit("\tmov byte %s, al", memOperand)
	} else {
		g.emit("\tmov %s, eax", memOperand)
	}
}

// loadFrom emits a load into eax from a memory operand of the given type.
func (g *gen) loadFrom(memOperand string, t *Type) {
	if t.Kind == TypeChar {
		g.emit("\tmovzx eax, byte %s", memOperand)
	} else {
		g.emit("\tmov eax, dword %s", memOperand)
	}
}

// genExpr evaluates e into eax and returns its (decayed) type.
//
//nolint:gocyclo // expression dispatch
func (g *gen) genExpr(e Expr) (*Type, error) {
	switch ex := e.(type) {
	case *IntLit:
		if ex.Value == 0 {
			g.emit("\txor eax, eax")
		} else {
			g.emit("\tmov eax, %d", int32(ex.Value))
		}
		return typeInt, nil

	case *StrLit:
		g.emit("\tmov eax, %s", g.strLabel(ex.Value))
		return ptrTo(typeChar), nil

	case *Ident:
		if lv, ok := g.locals[ex.Name]; ok {
			if lv.typ.Kind == TypeArray {
				g.emit("\tlea eax, [ebp%+d]", lv.off)
				return lv.typ.decay(), nil
			}
			g.loadFrom(fmt.Sprintf("[ebp%+d]", lv.off), lv.typ)
			return lv.typ, nil
		}
		if gv, ok := g.globals[ex.Name]; ok {
			if gv.Type.Kind == TypeArray {
				g.emit("\tmov eax, %s", ex.Name)
				return gv.Type.decay(), nil
			}
			g.loadFrom(fmt.Sprintf("[%s]", ex.Name), gv.Type)
			return gv.Type, nil
		}
		return nil, cerr(ex.Line, "undefined identifier %q", ex.Name)

	case *Unary:
		switch ex.Op {
		case "-":
			t, err := g.genExpr(ex.X)
			if err != nil {
				return nil, err
			}
			if t.IsPtrLike() {
				return nil, cerr(ex.Line, "negation of pointer")
			}
			g.emit("\tneg eax")
			return typeInt, nil
		case "~":
			if _, err := g.genExpr(ex.X); err != nil {
				return nil, err
			}
			g.emit("\tnot eax")
			return typeInt, nil
		case "!":
			return g.genBoolValue(e)
		case "*":
			t, err := g.genExpr(ex.X)
			if err != nil {
				return nil, err
			}
			if !t.IsPtrLike() {
				return nil, cerr(ex.Line, "dereference of non-pointer %s", t)
			}
			elem := t.decay().Elem
			g.loadFrom("[eax]", elem)
			return elem.decay(), nil
		case "&":
			t, err := g.genAddr(ex.X)
			if err != nil {
				return nil, err
			}
			return ptrTo(t), nil
		}
		return nil, cerr(ex.Line, "unknown unary operator %q", ex.Op)

	case *Binary:
		if _, isRel := relJcc[ex.Op]; isRel || ex.Op == "&&" || ex.Op == "||" {
			return g.genBoolValue(e)
		}
		return g.genArith(ex.Op, ex.X, ex.Y, ex.Line)

	case *Assign:
		return g.genAssign(ex)

	case *Call:
		return g.genCall(ex)

	case *Index:
		t, err := g.genAddr(ex)
		if err != nil {
			return nil, err
		}
		g.loadFrom("[eax]", t)
		return t.decay(), nil

	case *PostIncDec:
		t, err := g.genAddr(ex.X)
		if err != nil {
			return nil, err
		}
		delta := 1
		if t.Kind == TypePtr {
			delta = t.Elem.Size()
		}
		g.emit("\tmov ecx, eax")
		g.loadFrom("[ecx]", t)
		g.emit("\tpush eax")
		if ex.Inc {
			g.emit("\tadd eax, %d", delta)
		} else {
			g.emit("\tsub eax, %d", delta)
		}
		g.storeTo("[ecx]", t)
		g.emit("\tpop eax")
		return t.decay(), nil
	}
	return nil, fmt.Errorf("cc: unknown expression %T", e)
}

// genBoolValue materializes a boolean expression as 0/1 in eax. The
// default style uses branches (the branch-dense codegen the paper's
// disassembly shows); Options.SetccBooleans switches simple comparisons to
// cmp+setcc+movzx (see DESIGN.md "Design choices to ablate").
func (g *gen) genBoolValue(e Expr) (*Type, error) {
	if g.opts.SetccBooleans {
		if bin, ok := e.(*Binary); ok {
			if jccs, isRel := relJcc[bin.Op]; isRel {
				tx, ty, err := g.genOperandPair(bin.X, bin.Y)
				if err != nil {
					return nil, err
				}
				jcc := jccs[0]
				if tx.IsPtrLike() || ty.IsPtrLike() {
					jcc = jccs[1]
				}
				g.emit("\tcmp eax, ecx")
				g.emit("\tset%s al", jcc[1:])
				g.emit("\tmovzx eax, al")
				return typeInt, nil
			}
		}
	}
	trueLbl := g.label()
	endLbl := g.label()
	if err := g.genCondJump(e, trueLbl, true); err != nil {
		return nil, err
	}
	g.emit("\txor eax, eax")
	g.emit("\tjmp %s", endLbl)
	g.emit("%s:", trueLbl)
	g.emit("\tmov eax, 1")
	g.emit("%s:", endLbl)
	return typeInt, nil
}

// genArith compiles the non-comparison binary operators.
func (g *gen) genArith(op string, x, y Expr, line int) (*Type, error) {
	tx, ty, err := g.genOperandPair(x, y)
	if err != nil {
		return nil, err
	}
	// Pointer arithmetic scaling.
	resType := typeInt
	switch {
	case op == "+" && tx.IsPtrLike() && !ty.IsPtrLike():
		g.scaleReg("ecx", tx.decay().Elem.Size())
		resType = tx.decay()
	case op == "+" && ty.IsPtrLike() && !tx.IsPtrLike():
		// int + ptr: scale the int side (eax).
		g.scaleReg("eax", ty.decay().Elem.Size())
		resType = ty.decay()
	case op == "-" && tx.IsPtrLike() && !ty.IsPtrLike():
		g.scaleReg("ecx", tx.decay().Elem.Size())
		resType = tx.decay()
	case op == "-" && tx.IsPtrLike() && ty.IsPtrLike():
		// ptr - ptr: byte difference divided by element size.
		g.emit("\tsub eax, ecx")
		size := tx.decay().Elem.Size()
		if size > 1 {
			g.emit("\tmov ecx, %d", size)
			g.emit("\tcdq")
			g.emit("\tidiv ecx")
		}
		return typeInt, nil
	}

	switch op {
	case "+":
		g.emit("\tadd eax, ecx")
	case "-":
		g.emit("\tsub eax, ecx")
	case "*":
		g.emit("\timul eax, ecx")
	case "/":
		g.emit("\tcdq")
		g.emit("\tidiv ecx")
	case "%":
		g.emit("\tcdq")
		g.emit("\tidiv ecx")
		g.emit("\tmov eax, edx")
	case "&":
		g.emit("\tand eax, ecx")
	case "|":
		g.emit("\tor eax, ecx")
	case "^":
		g.emit("\txor eax, ecx")
	case "<<":
		g.emit("\tshl eax, cl")
	case ">>":
		g.emit("\tsar eax, cl")
	default:
		return nil, cerr(line, "unknown binary operator %q", op)
	}
	return resType, nil
}

// scaleReg multiplies a register by an element size (pointer arithmetic).
func (g *gen) scaleReg(reg string, size int) {
	if size <= 1 {
		return
	}
	g.emit("\timul %s, %s, %d", reg, reg, size)
}

// genAssign compiles plain and compound assignment.
func (g *gen) genAssign(ex *Assign) (*Type, error) {
	t, err := g.genAddr(ex.LHS)
	if err != nil {
		return nil, err
	}
	g.emit("\tpush eax")
	if _, err := g.genExpr(ex.RHS); err != nil {
		return nil, err
	}
	if ex.Op == "" {
		g.emit("\tpop ecx")
		g.storeTo("[ecx]", t)
		return t.decay(), nil
	}
	// Compound assignment: stack holds [addr]; eax holds rhs.
	g.emit("\tpush eax")         // [addr, rhs]
	g.emit("\tmov eax, [esp+4]") // addr
	g.loadFrom("[eax]", t)       // old value
	g.emit("\tpop ecx")          // rhs -> ecx, [addr]
	if t.Kind == TypePtr && (ex.Op == "+" || ex.Op == "-") {
		g.scaleReg("ecx", t.Elem.Size())
	}
	switch ex.Op {
	case "+":
		g.emit("\tadd eax, ecx")
	case "-":
		g.emit("\tsub eax, ecx")
	case "*":
		g.emit("\timul eax, ecx")
	case "/":
		g.emit("\tcdq")
		g.emit("\tidiv ecx")
	case "%":
		g.emit("\tcdq")
		g.emit("\tidiv ecx")
		g.emit("\tmov eax, edx")
	case "&":
		g.emit("\tand eax, ecx")
	case "|":
		g.emit("\tor eax, ecx")
	case "^":
		g.emit("\txor eax, ecx")
	case "<<":
		g.emit("\tshl eax, cl")
	case ">>":
		g.emit("\tsar eax, cl")
	default:
		return nil, cerr(ex.Line, "unknown compound operator %q=", ex.Op)
	}
	g.emit("\tpop ecx") // addr
	g.storeTo("[ecx]", t)
	return t.decay(), nil
}

// genCall compiles builtin syscalls and ordinary cdecl calls.
func (g *gen) genCall(ex *Call) (*Type, error) {
	if arity, ok := builtins[ex.Name]; ok {
		if len(ex.Args) != arity {
			return nil, cerr(ex.Line, "%s expects %d arguments", ex.Name, arity)
		}
		return g.genSyscall(ex)
	}
	fn, ok := g.funcs[ex.Name]
	if !ok {
		return nil, cerr(ex.Line, "call of undefined function %q", ex.Name)
	}
	if len(ex.Args) != len(fn.Params) {
		return nil, cerr(ex.Line, "%s expects %d arguments, got %d",
			ex.Name, len(fn.Params), len(ex.Args))
	}
	// cdecl: push arguments right-to-left; caller cleans the stack.
	for i := len(ex.Args) - 1; i >= 0; i-- {
		if _, err := g.genExpr(ex.Args[i]); err != nil {
			return nil, err
		}
		g.emit("\tpush eax")
	}
	g.emit("\tcall %s", ex.Name)
	if n := len(ex.Args); n > 0 {
		g.emit("\tadd esp, %d", 4*n)
	}
	return fn.Ret.decay(), nil
}

// genSyscall inlines an int 0x80 sequence. EBX is callee-saved in cdecl,
// so it is preserved around the trap.
func (g *gen) genSyscall(ex *Call) (*Type, error) {
	nr := map[string]int{"sys_exit": 1, "sys_read": 3, "sys_write": 4}[ex.Name]
	if ex.Name == "sys_exit" {
		if _, err := g.genExpr(ex.Args[0]); err != nil {
			return nil, err
		}
		g.emit("\tmov ebx, eax")
		g.emit("\tmov eax, %d", nr)
		g.emit("\tint 0x80")
		return typeInt, nil
	}
	g.emit("\tpush ebx")
	for i := 0; i < 2; i++ { // fd, buf pushed; count stays in eax->edx
		if _, err := g.genExpr(ex.Args[i]); err != nil {
			return nil, err
		}
		g.emit("\tpush eax")
	}
	if _, err := g.genExpr(ex.Args[2]); err != nil {
		return nil, err
	}
	g.emit("\tmov edx, eax")
	g.emit("\tpop ecx")
	g.emit("\tpop ebx")
	g.emit("\tmov eax, %d", nr)
	g.emit("\tint 0x80")
	g.emit("\tpop ebx")
	return typeInt, nil
}

// genAddr evaluates the address of an lvalue into eax and returns the type
// of the addressed object.
func (g *gen) genAddr(e Expr) (*Type, error) {
	switch ex := e.(type) {
	case *Ident:
		if lv, ok := g.locals[ex.Name]; ok {
			g.emit("\tlea eax, [ebp%+d]", lv.off)
			return lv.typ, nil
		}
		if gv, ok := g.globals[ex.Name]; ok {
			g.emit("\tmov eax, %s", ex.Name)
			return gv.Type, nil
		}
		return nil, cerr(ex.Line, "undefined identifier %q", ex.Name)
	case *Index:
		tp, ti, err := g.genOperandPair(ex.X, ex.I)
		if err != nil {
			return nil, err
		}
		if !tp.IsPtrLike() {
			if !ti.IsPtrLike() {
				return nil, cerr(ex.Line, "indexing non-pointer %s", tp)
			}
			tp, ti = ti, tp // i[p] — unusual but C-legal; not generated here
		}
		elem := tp.decay().Elem
		g.scaleReg("ecx", elem.Size())
		g.emit("\tadd eax, ecx")
		return elem, nil
	case *Unary:
		if ex.Op == "*" {
			t, err := g.genExpr(ex.X)
			if err != nil {
				return nil, err
			}
			if !t.IsPtrLike() {
				return nil, cerr(ex.Line, "dereference of non-pointer %s", t)
			}
			return t.decay().Elem, nil
		}
	}
	return nil, fmt.Errorf("cc: expression %T is not an lvalue", e)
}

// ---- data emission ----

func (g *gen) emitStrings() error {
	if len(g.strs) == 0 {
		return nil
	}
	g.emit(".rodata")
	// Deterministic order.
	lits := make([]string, 0, len(g.strs))
	for s := range g.strs {
		lits = append(lits, s)
	}
	sort.Slice(lits, func(i, j int) bool { return g.strs[lits[i]] < g.strs[lits[j]] })
	for _, s := range lits {
		g.emit("%s: .asciz %s", g.strs[s], quoteForAsm(s))
	}
	return nil
}

func (g *gen) emitGlobals(globals []*VarDecl) error {
	var bss, data []*VarDecl
	for _, v := range globals {
		if v.Init == nil && !v.IsStr {
			bss = append(bss, v)
		} else {
			data = append(data, v)
		}
	}
	if len(data) > 0 {
		g.emit(".data")
		for _, v := range data {
			if err := g.emitDataGlobal(v); err != nil {
				return err
			}
		}
	}
	if len(bss) > 0 {
		g.emit(".bss")
		for _, v := range bss {
			g.emit(".align 4")
			g.emit("%s: .space %d", v.Name, max4(v.Type.Size()))
		}
	}
	return nil
}

func max4(n int) int {
	if n < 1 {
		return 4
	}
	return n
}

func (g *gen) emitDataGlobal(v *VarDecl) error {
	g.emit(".align 4")
	if v.IsStr {
		pad := v.Type.Count - (len(v.Str) + 1)
		if pad < 0 {
			return cerr(v.Line, "initializer longer than array %q", v.Name)
		}
		g.emit("%s: .asciz %s", v.Name, quoteForAsm(v.Str))
		if pad > 0 {
			g.emit(".space %d", pad)
		}
		return nil
	}
	elem := v.Type
	count := 1
	if v.Type.Kind == TypeArray {
		elem = v.Type.Elem
		count = v.Type.Count
	}
	if len(v.Init) > count {
		return cerr(v.Line, "too many initializers for %q", v.Name)
	}
	emitOne := func(init GlobalInit) error {
		switch {
		case init.Str != nil:
			if elem.Kind != TypePtr || elem.Elem.Kind != TypeChar {
				return cerr(v.Line, "string initializer for non-char* element in %q", v.Name)
			}
			g.emit(".dd %s", g.strLabel(*init.Str))
		case init.Symbol != "":
			if _, ok := g.globals[init.Symbol]; !ok {
				if _, fok := g.funcs[init.Symbol]; !fok {
					return cerr(v.Line, "unknown symbol %q in initializer", init.Symbol)
				}
			}
			g.emit(".dd %s", init.Symbol)
		default:
			if elem.Kind == TypeChar {
				g.emit(".db %d", byte(init.Value))
			} else {
				g.emit(".dd %d", int32(init.Value))
			}
		}
		return nil
	}
	g.emit("%s:", v.Name)
	for _, init := range v.Init {
		if err := emitOne(init); err != nil {
			return err
		}
	}
	// Zero-fill the remainder.
	rest := count - len(v.Init)
	if rest > 0 {
		g.emit(".space %d", rest*elem.Size())
	}
	return nil
}

// quoteForAsm renders a Go string as an assembler string literal.
func quoteForAsm(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\n':
			b.WriteString("\\n")
		case '\r':
			b.WriteString("\\r")
		case '\t':
			b.WriteString("\\t")
		case 0:
			b.WriteString("\\0")
		case '\\':
			b.WriteString("\\\\")
		case '"':
			b.WriteString("\\\"")
		default:
			if c < 32 || c > 126 {
				fmt.Fprintf(&b, "\\x%02x", c)
			} else {
				b.WriteByte(c)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
