package attack_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/modelzoo"
	"repro/internal/tensor"
)

// updateDigests rewrites the committed crafted-batch digests:
//
//	go test ./internal/attack -run TestCraftedDigests -update
var updateDigests = flag.Bool("update", false, "rewrite testdata/crafted_digests.txt")

const digestFile = "testdata/crafted_digests.txt"

// weightsKey names the digest file's entry for the source weights'
// fingerprint.
const weightsKey = "weights:lenet5-digits"

// TestCraftedDigests pins the exact bytes every attack crafts on the
// zoo's lenet5-digits weights: 16 test samples, eps 0.1 (linf) or
// 1.0 (l2), seed 3, crafted through core.Cache.CraftedBatch so rows
// are seeded and chunked the way the harness does it. It covers every
// registered attack plus the two configuration-only ones, a 3-restart
// PGD-linf and EOT over a 3-multiplier ensemble drawing 2 samples per
// step.
//
// The digests hold only for the weights they were recorded on, whose
// fingerprint the file also records. Training is deterministic per
// worker count, and these weights were trained at GOMAXPROCS=2, as
// suitebench trains them; weights trained at another count skip the
// test rather than fail it.
func TestCraftedDigests(t *testing.T) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		t.Fatal(err)
	}
	weights := fmt.Sprintf("%016x", m.Net.WeightsFingerprint())
	var want map[string]string
	if !*updateDigests {
		want = readDigests(t)
		if w := want[weightsKey]; w != weights {
			t.Skipf("lenet5-digits weights %s are not the %s the digests were recorded on (trained at another worker count?)", weights, w)
		}
	}
	test := m.Test.Slice(16)
	ens, err := defense.BuildEnsemble(m.Net, m.Test, []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_L40"}, axnn.Options{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]attack.Attack{}
	for _, a := range attack.All() {
		named[a.Name()] = a
	}
	named["Restart3-PGD-linf"] = attack.NewRestart(attack.NewPGD(attack.Linf), 3)
	named["EOT2-PGD-linf"] = attack.NewEOT(ens, attack.Linf, 2)
	named["EOT2-PGD-l2"] = attack.NewEOT(ens, attack.L2, 2)

	got := map[string]string{}
	for name, a := range named {
		eps := 1.0
		if a.Norm() == attack.Linf {
			eps = 0.1
		}
		// A fresh cache per attack: every digest is a recompute.
		cache := core.NewCache(core.CacheConfig{})
		adv, _, err := cache.CraftedBatch(context.Background(), m.Net, test, a, eps, core.Options{Seed: 3, Batch: 5, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digest(adv)
	}
	got[weightsKey] = weights

	if *updateDigests {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# sha256 of each crafted batch's shape and float32 bits, and the source weights' fingerprint; see TestCraftedDigests\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no committed digest (rerun with -update)", name)
		} else if d != w {
			t.Errorf("%s: crafted digest %s, committed %s", name, d, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed digest for an attack no longer crafted", name)
		}
	}
}

// digest hashes a tensor's shape and the little-endian bits of its
// values.
func digest(x *tensor.T) string {
	h := sha256.New()
	var buf [4]byte
	for _, d := range x.Shape {
		binary.LittleEndian.PutUint32(buf[:], uint32(d))
		h.Write(buf[:])
	}
	for _, v := range x.Data {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, d, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
