package migratorydata_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Good enough for the
// plain links these docs use; reference-style links are not used here.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinksResolve walks the repository's markdown documentation and
// verifies that every relative link points at a file that exists, so moved
// or renamed docs cannot rot silently. CI runs it in the docs job.
func TestDocLinksResolve(t *testing.T) {
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		match, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, match...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not checked to keep CI hermetic
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment link
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found; the README must at least link docs/")
	}
}

// TestDocsPinDurability pins the durability documentation contract: the
// architecture map describes the durability path, and the benchmark
// runbook carries the on-disk byte layout and the seglog metric families
// — internal/seglog/record.go points readers at these sections by name,
// so renaming them must fail here, not rot silently.
func TestDocsPinDurability(t *testing.T) {
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "### The durability path") {
		t.Error(`docs/ARCHITECTURE.md lost its "The durability path" section`)
	}
	bench, err := os.ReadFile("docs/BENCHMARKS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Durable history",
		"### Segment record layout",
		"migratorydata_seglog_failed",
		"BENCH_durability.json",
		"kill-and-resume",
	} {
		if !strings.Contains(string(bench), want) {
			t.Errorf("docs/BENCHMARKS.md lost %q", want)
		}
	}
}

// TestDocsPinConnectionPath pins the connection-scale documentation
// contract: the architecture map describes the event-loop read path (fd
// ownership rule, fallback build tag) and the egress write per client per
// IoThread drain, and the benchmark runbook carries
// the BENCH_c10m.json schema and its baseline-refresh step — code and CI
// point readers at these by name, so renaming them must fail here.
func TestDocsPinConnectionPath(t *testing.T) {
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"### The connection path",
		"syscall.RawConn",
		"nonetpoll",
		"one write per client per IoThread drain",
		"`io_flush_bytes / io_flushes` is the achieved coalescing",
	} {
		if !strings.Contains(string(arch), want) {
			t.Errorf("docs/ARCHITECTURE.md lost %q", want)
		}
	}
	bench, err := os.ReadFile("docs/BENCHMARKS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BENCH_c10m.json",
		"max_sustained_conns",
		"gated_goroutines_per_conn",
		"gated_bytes_budget_exceeded",
		"BenchmarkC10MIdleConnections",
	} {
		if !strings.Contains(string(bench), want) {
			t.Errorf("docs/BENCHMARKS.md lost %q", want)
		}
	}
}

// TestDocsExist pins the documentation set the repository promises: the
// architecture map, the wire-format specification, and the benchmark
// runbook, each non-trivially sized and linked from the README.
func TestDocsExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/PROTOCOL.md", "docs/BENCHMARKS.md", "docs/STATIC_ANALYSIS.md"} {
		st, err := os.Stat(doc)
		if err != nil {
			t.Errorf("missing %s: %v", doc, err)
			continue
		}
		if st.Size() < 1024 {
			t.Errorf("%s is implausibly small (%d bytes)", doc, st.Size())
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README.md does not link %s", doc)
		}
	}
}
