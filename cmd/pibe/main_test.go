package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestEngineFlagDefaultsToCompiled runs `pibe build -h` in a child
// process (the flag set exits after printing its help) and checks that
// the help text names compiled as the -engine default.
func TestEngineFlagDefaultsToCompiled(t *testing.T) {
	if os.Getenv("PIBE_TEST_MAIN") == "1" {
		os.Args = []string{"pibe", "build", "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestEngineFlagDefaultsToCompiled$")
	cmd.Env = append(os.Environ(), "PIBE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pibe build -h: %v\n%s", err, out)
	}
	lines := strings.Split(string(out), "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) != "-engine string" {
			continue
		}
		if i+1 >= len(lines) || !strings.Contains(lines[i+1], `(default "compiled")`) {
			t.Fatalf("-engine help does not default to compiled:\n%s", out)
		}
		return
	}
	t.Fatalf("help lists no -engine flag:\n%s", out)
}
