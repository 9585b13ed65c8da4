package nn

import "testing"

// TestX86Features pins the CPU probe's decision on the raw CPUID/XCR0 words,
// including the cases a CPU or OS can get wrong: a highest basic leaf below
// 7 (leaf 7's word is then another leaf's data and must be ignored), AVX
// without OS-saved YMM state, and AVX-512F without OS-saved opmask/ZMM
// state.
func TestX86Features(t *testing.T) {
	const (
		ecx1    = 1<<27 | 1<<28      // OSXSAVE, AVX
		ebx7    = 1<<5 | 1<<16       // AVX2, AVX-512F
		xcr0YMM = 1<<0 | 1<<1 | 1<<2 // x87, XMM, YMM
		xcr0ZMM = xcr0YMM | 0x7<<5   // + opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, tc := range []struct {
		name                    string
		maxLeaf, ecx, ebx, xcr0 uint32
		want                    kernelSet
	}{
		{"max leaf 6", 6, ecx1, ebx7, xcr0ZMM, genericKernels},
		{"AVX without OS YMM state", 0xd, ecx1, ebx7, 1<<0 | 1<<1, genericKernels},
		{"AVX-512F without ZMM state", 0xd, ecx1, ebx7, xcr0YMM, avx2Kernels},
		{"AVX-512F without opmask state", 0xd, ecx1, ebx7, xcr0YMM | 0x3<<6, avx2Kernels},
		{"full AVX-512 host", 0xd, ecx1, ebx7, xcr0ZMM, avx512Kernels},
	} {
		if got := x86Features(tc.maxLeaf, tc.ecx, tc.ebx, tc.xcr0); got != tc.want {
			t.Errorf("%s: kernel set %s, want %s", tc.name, kernelNames[got], kernelNames[tc.want])
		}
	}
}
