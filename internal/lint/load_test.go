package lint

import (
	"go/build"
	"path/filepath"
	"testing"
)

// loadNN loads warper/internal/nn under the given GOARCH ("" is the shared
// loader's default context) and returns the base names of the files that
// made it into the package.
func loadNN(t *testing.T, goarch string) map[string]bool {
	t.Helper()
	l := sharedLoader(t)
	if goarch != "" {
		var err error
		if l, err = NewLoader(l.Root); err != nil {
			t.Fatal(err)
		}
		ctx := build.Default
		ctx.GOARCH = goarch
		l.Build = &ctx
	}
	pkg, err := l.LoadDir("warper/internal/nn", filepath.Join(l.Root, "internal", "nn"))
	if err != nil {
		t.Fatalf("GOARCH=%s: %v", goarch, err)
	}
	names := map[string]bool{}
	for _, f := range pkg.Files {
		names[filepath.Base(pkg.Fset.Position(f.Pos()).Filename)] = true
	}
	return names
}

// TestLoaderBuildContext pins that the Loader sees build-tagged files
// through its configurable context rather than the host platform: an amd64
// context must load the AVX2 kernel declarations and drop the portable
// fallback, and a non-amd64 context the reverse — regardless of the GOARCH
// this test itself runs on. Without this, the lint rules would silently
// skip whichever side of a tagged pair the CI host does not build.
func TestLoaderBuildContext(t *testing.T) {
	for _, tc := range []struct {
		goarch    string
		want, not string
	}{
		{"amd64", "simd_amd64.go", "simd_other.go"},
		{"arm64", "simd_other.go", "simd_amd64.go"},
	} {
		names := loadNN(t, tc.goarch)
		if !names[tc.want] {
			t.Errorf("GOARCH=%s: %s not loaded (got %v)", tc.goarch, tc.want, names)
		}
		if names[tc.not] {
			t.Errorf("GOARCH=%s: %s loaded but should be excluded", tc.goarch, tc.not)
		}
	}
}

// TestLoaderDefaultContextMatchesHost pins the nil-Build default: the same
// file set build.Default would select.
func TestLoaderDefaultContextMatchesHost(t *testing.T) {
	names := loadNN(t, "")
	wantAVX := build.Default.GOARCH == "amd64"
	if names["simd_amd64.go"] != wantAVX || names["simd_other.go"] == wantAVX {
		t.Errorf("host GOARCH=%s: got files %v", build.Default.GOARCH, names)
	}
}
