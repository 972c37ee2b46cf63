package cfg

import (
	"fmt"

	"repro/internal/rtl"
)

// Validate checks the structural invariants every pass must preserve:
//
//   - every branch / jump / table target resolves to a block of f;
//   - control-transfer instructions terminate their block (unless
//     delaySlots, in which case exactly one trailing slot instruction is
//     allowed after each CTI);
//   - no duplicate block labels;
//   - operands are well formed (register fields present where required);
//   - the entry block exists.
//
// It returns the first violation found, or nil. The optimizer does not call
// it on hot paths; tests and the debug tools do.
func Validate(f *Func, delaySlots bool) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("cfg: %s: no blocks", f.Name)
	}
	// One pass builds the label index and rejects duplicates; target checks
	// below are then O(1) map lookups instead of a linear Func.BlockByLabel
	// scan per target (which made Validate O(blocks x targets) on the
	// goto-heavy stress functions).
	seen := make(map[rtl.Label]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		if seen[b.Label] != nil {
			return fmt.Errorf("cfg: %s: duplicate label %s", f.Name, b.Label)
		}
		seen[b.Label] = b
	}
	checkTarget := func(b *Block, l rtl.Label) error {
		if seen[l] == nil {
			return fmt.Errorf("cfg: %s: block %s targets unknown label %s", f.Name, b.Label, l)
		}
		return nil
	}
	for _, b := range f.Blocks {
		ctiAt := -1
		for ii := range b.Insts {
			in := &b.Insts[ii]
			if err := validOperands(f, b, in); err != nil {
				return err
			}
			switch in.Kind {
			case rtl.Br, rtl.Jmp:
				if err := checkTarget(b, in.Target); err != nil {
					return err
				}
			case rtl.IJmp:
				if len(in.Table) == 0 {
					return fmt.Errorf("cfg: %s: block %s: empty jump table", f.Name, b.Label)
				}
				for _, l := range in.Table {
					if err := checkTarget(b, l); err != nil {
						return err
					}
				}
			}
			if in.IsCTI() {
				if ctiAt >= 0 {
					return fmt.Errorf("cfg: %s: block %s has two CTIs", f.Name, b.Label)
				}
				ctiAt = ii
			}
		}
		if ctiAt >= 0 {
			trailing := len(b.Insts) - 1 - ctiAt
			switch {
			case !delaySlots && trailing != 0:
				return fmt.Errorf("cfg: %s: block %s: %d instructions after the CTI", f.Name, b.Label, trailing)
			case delaySlots && trailing != 1:
				return fmt.Errorf("cfg: %s: block %s: CTI needs exactly one delay slot, has %d", f.Name, b.Label, trailing)
			}
		}
	}
	return nil
}

// validOperands rejects malformed operand fields.
func validOperands(f *Func, b *Block, in *rtl.Inst) error {
	bad := func(what string) error {
		return fmt.Errorf("cfg: %s: block %s: %s in %q", f.Name, b.Label, what, in.String())
	}
	check := func(o rtl.Operand) error {
		switch o.Kind {
		case rtl.OReg:
			if o.Reg == rtl.RegNone {
				return bad("register operand without a register")
			}
		case rtl.OMem:
			if o.Reg == rtl.RegNone {
				return bad("memory operand without a base register")
			}
			if o.Index != rtl.RegNone && o.Scale <= 0 {
				return bad("indexed memory operand with non-positive scale")
			}
		case rtl.OGlobal, rtl.OAddrGlobal:
			if o.Sym == "" {
				return bad("global operand without a symbol")
			}
		}
		return nil
	}
	for _, o := range []rtl.Operand{in.Dst, in.Src, in.Src2} {
		if err := check(o); err != nil {
			return err
		}
	}
	switch in.Kind {
	case rtl.Move, rtl.Bin, rtl.Un:
		if in.Dst.Kind == rtl.ONone {
			return bad("assignment without a destination")
		}
		if in.Dst.Kind == rtl.OImm || in.Dst.Kind == rtl.OAddrLocal || in.Dst.Kind == rtl.OAddrGlobal {
			return bad("assignment to a constant")
		}
	case rtl.Call:
		if in.Sym == "" {
			return bad("call without a symbol")
		}
	}
	return nil
}
