package core

// useAVX2 reports whether axpy4 runs the AVX2 kernel: the CPU has AVX2
// and the OS saves the YMM registers. It is read once, at package init.
var useAVX2 = cpuHasAVX2()

// axpy4 is axpy4Go, run by axpy4AVX2 where AVX2 is available and the row
// fills at least one eight-lane iteration; on shorter rows the call costs
// more than the scalar loop it would run. The vector kernel gives the
// same bits: each lane performs axpy4Go's unfused multiply, then add, in
// the same row order (DESIGN §14).
func axpy4(out, b0, b1, b2, b3 []float64, m0, m1, m2, m3 float64) {
	if useAVX2 && len(out) >= 8 {
		n := len(out)
		axpy4AVX2(out, b0[:n], b1[:n], b2[:n], b3[:n], m0, m1, m2, m3)
		return
	}
	axpy4Go(out, b0, b1, b2, b3, m0, m1, m2, m3)
}

// axpy4AVX2 is axpy4Go eight lanes at a time with VMULPD then VADDPD,
// never a fused multiply-add, and a scalar tail. Each b must be exactly
// as long as out.
//
//go:noescape
func axpy4AVX2(out, b0, b1, b2, b3 []float64, m0, m1, m2, m3 float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports CPUID leaf 7's AVX2 bit (EBX bit 5) together with
// AVX and OSXSAVE (leaf 1 ECX bits 28 and 27) and an XCR0 in which the OS
// saves both the XMM and the YMM state (bits 1 and 2).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
