package replicate

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/tv"
)

// Certificate emission tests: every applied duplication must hand the
// OnCertificate hook a certificate that the translation validator accepts
// *at emission time* — the validator contract is that the function is in
// exactly the state the certificate describes when the hook fires, so all
// checking here happens synchronously inside the hook.

// certCollector returns Options wired to validate each certificate as it
// is emitted and to record it (with the kind tally) for later assertions.
func certCollector(t *testing.T) (Options, *[]*tv.Certificate) {
	t.Helper()
	certs := &[]*tv.Certificate{}
	opts := Options{
		OnCertificate: func(f *cfg.Func, c *tv.Certificate) {
			if vs := tv.Validate(f, c); len(vs) != 0 {
				t.Errorf("%s certificate rejected at emission: %v\nfunc:\n%s", c.Kind, vs, f)
			}
			*certs = append(*certs, c)
		},
	}
	return opts, certs
}

func kindCount(certs []*tv.Certificate, k tv.Kind) int {
	n := 0
	for _, c := range certs {
		if c.Kind == k {
			n++
		}
	}
	return n
}

const (
	// replicableSrc: L0 jumps over the else-part to the return block; the
	// paper's Table-2 shape, replicated by copying the return.
	replicableSrc = `func r(params=0, locals=0):
L0:
	v0 = #1
	PC = L2
L1:
	v0 = #2
L2:
	PC = RT, rv=v0
`
	// jumpToNextSrc: the jump targets the positionally next block, so the
	// sweep deletes it outright (and must certify the deletion).
	jumpToNextSrc = `func d(params=0, locals=0):
L0:
	v0 = #1
	PC = L1
L1:
	PC = RT, rv=v0
`
	// whileShapeSrc: the entry jumps to the loop's pure termination test at
	// the bottom; LOOPS replaces the jump with an adjusted copy of the test.
	whileShapeSrc = `func w(params=1, locals=1):
L0:
	v0 = L[fp+0]
	PC = L2
L1:
	v0 = v0 - #1
L2:
	CC = v0 ? #0
	PC = CC > 0, L1
L3:
	PC = RT, rv=v0
`
)

func TestCertificateJumpsReplication(t *testing.T) {
	f := mustParse(t, replicableSrc)
	opts, certs := certCollector(t)
	res := JUMPS(f, opts)
	if !res.Changed || res.Replications != 1 {
		t.Fatalf("want 1 replication, got %+v:\n%s", res, f)
	}
	if n := kindCount(*certs, tv.KindReplication); n != 1 {
		t.Fatalf("want 1 replication certificate, got %d (%d total)", n, len(*certs))
	}
	c := (*certs)[0]
	if c.Func != "r" || len(c.Copies) != 1 {
		t.Errorf("certificate = %+v, want func r with one copy pair", c)
	}
}

func TestCertificateJumpDelete(t *testing.T) {
	f := mustParse(t, jumpToNextSrc)
	opts, certs := certCollector(t)
	res := JUMPS(f, opts)
	if res.JumpsDeleted != 1 {
		t.Fatalf("want 1 jump deleted, got %+v:\n%s", res, f)
	}
	if n := kindCount(*certs, tv.KindJumpDelete); n != 1 {
		t.Fatalf("want 1 jump-delete certificate, got %d", n)
	}
}

func TestCertificateRotation(t *testing.T) {
	f := mustParse(t, whileShapeSrc)
	opts, certs := certCollector(t)
	res := LOOPS(f, opts)
	if !res.Changed || res.Replications != 1 {
		t.Fatalf("want 1 rotation, got %+v:\n%s", res, f)
	}
	if n := kindCount(*certs, tv.KindRotation); n != 1 {
		t.Fatalf("want 1 rotation certificate, got %d", n)
	}
	if c := (*certs)[0]; c.CopyLen != 2 {
		t.Errorf("rotation CopyLen = %d, want 2 (Cmp + Br)", c.CopyLen)
	}
}

// TestCertificateFoldConstRoute: both folds on the constant-decided fixture
// certify with constant-environment evidence.
func TestCertificateFoldConstRoute(t *testing.T) {
	f := mustParse(t, constDecidedSrc)
	opts, certs := certCollector(t)
	res := condElim(f, opts)
	if res.BranchesFolded != 2 {
		t.Fatalf("want 2 folds, got %+v:\n%s", res, f)
	}
	if n := kindCount(*certs, tv.KindFold); n != 2 {
		t.Fatalf("want 2 fold certificates, got %d", n)
	}
	for _, c := range *certs {
		if c.Kind == tv.KindFold && c.Evidence.Route != tv.RouteConst {
			t.Errorf("fold evidence route = %q, want %q", c.Evidence.Route, tv.RouteConst)
		}
	}
}

// TestCertificateFoldRelRoute: the dominating-test fixture folds with
// relation (sign-set) evidence — no constant in sight.
func TestCertificateFoldRelRoute(t *testing.T) {
	f := mustParse(t, domDecidedSrc)
	opts, certs := certCollector(t)
	res := condElim(f, opts)
	if res.BranchesFolded == 0 {
		t.Fatalf("want at least one fold, got %+v:\n%s", res, f)
	}
	folds := 0
	for _, c := range *certs {
		if c.Kind != tv.KindFold {
			continue
		}
		folds++
		if c.Evidence.Route != tv.RouteRel {
			t.Errorf("fold evidence route = %q, want %q", c.Evidence.Route, tv.RouteRel)
		}
	}
	if folds == 0 {
		t.Fatal("no fold certificate emitted")
	}
}

// TestCertificateDUPSEndToEnd: the staged DUPS driver over the constant
// fixture — every certificate of every leg validates at emission.
func TestCertificateDUPSEndToEnd(t *testing.T) {
	f := mustParse(t, constDecidedSrc)
	opts, certs := certCollector(t)
	res := DUPS(f, opts)
	if !res.Changed {
		t.Fatalf("DUPS made no change:\n%s", f)
	}
	if len(*certs) == 0 {
		t.Fatal("DUPS applied edits but emitted no certificates")
	}
}

// TestForceRollbackEmitsNoCertificates pins the `-inject undo` property:
// a candidate that is rolled back never reaches the certificate hook, so
// force-rolling-back everything yields zero certificates.
func TestForceRollbackEmitsNoCertificates(t *testing.T) {
	for _, src := range []string{replicableSrc, constDecidedSrc, domDecidedSrc, whileShapeSrc, forShapeSrc} {
		f := mustParse(t, src)
		var certs []*tv.Certificate
		opts := Options{
			ForceRollback: true,
			OnCertificate: func(_ *cfg.Func, c *tv.Certificate) {
				certs = append(certs, c)
			},
		}
		JUMPS(f, opts)
		condElim(f, opts)
		LOOPS(f, opts)
		for _, c := range certs {
			// Jump-to-next deletion is not a guarded edit (it cannot break
			// reducibility), so its certificate legitimately survives undo
			// injection; everything else must not.
			if c.Kind != tv.KindJumpDelete {
				t.Errorf("rolled-back candidate emitted a %s certificate", c.Kind)
			}
		}
	}
}
