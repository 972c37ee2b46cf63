package pipeline_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/difftest"
)

// TestDumpSeed writes one generated program to seed<N>.c in the system's
// temporary directory for inspection and logs the path; it only runs when
// REPRO_DUMP_SEED is set to the seed number to dump.
func TestDumpSeed(t *testing.T) {
	env := os.Getenv("REPRO_DUMP_SEED")
	if env == "" {
		t.Skip("set REPRO_DUMP_SEED to a seed number to dump")
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("REPRO_DUMP_SEED=%q: %v", env, err)
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("seed%d.c", seed))
	if err := os.WriteFile(path, []byte(difftest.Generate(seed)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote seed %d to %s", seed, path)
}
