// hotpath.hpp — hot-path purity annotations for the symhot analyze gate.
//
// SYM_HOT marks a function as a hot-path ROOT: scripts/analyze/hotpath.py
// proves, on the relwithdebinfo object files, that no call path starting at
// a root reaches an allocation, a lock, a throw, or I/O emission, and that
// every indirect call on such a path carries an explicit line-comment
// waiver of the form `symhot: indirect(reason)`. The macro works by placing the
// symbol in a dedicated ELF section (.text.symhot) so the analyzer can
// discover the annotated set straight from the objects — no source parsing
// of attribute spellings. Crucially the section attribute does NOT inhibit
// inlining: callers still inline the body, and the standalone copy emitted
// into the section is what gets analyzed, so the proof covers the code that
// actually runs. Every root must also be registered (by demangled-name
// regex) in scripts/analyze/hotpath_roots.toml; the gate checks the two
// directions like symdet's waiver registry.
//
// SYM_COLD marks a sanctioned cold SINK on an otherwise-hot path: a
// noinline out-of-line boundary (one-time SIMD backend binding, error
// diagnosis) that the analyzer deliberately does not traverse into. Sinks
// live in .text.symhot_cold and must be registered as [[sink]] entries
// with a reason. Keep sink bodies trivial to reason about — everything
// behind one is exempt from the purity proof.
//
// To mark a new hot root:
//   1. put SYM_HOT in front of the function definition (the .cpp one for
//      out-of-line members);
//   2. add a [[root]] entry to scripts/analyze/hotpath_roots.toml whose
//      `symbol` regex matches the demangled name;
//   3. run scripts/analyze/hotpath.py and fix (or waive, with a reason)
//      what it finds.
#pragma once

#if defined(__ELF__) && (defined(__GNUC__) || defined(__clang__))
#define SYM_HOT __attribute__((hot, section(".text.symhot")))
#define SYM_COLD __attribute__((cold, noinline, section(".text.symhot_cold")))
#elif defined(__GNUC__) || defined(__clang__)
// Non-ELF GNU-style toolchains: no named-section discovery, but keep the
// inlining semantics identical so behaviour does not fork per platform.
#define SYM_HOT __attribute__((hot))
#define SYM_COLD __attribute__((cold, noinline))
#else
// Other toolchains: advisory only; the analyzer has no objects to read.
#define SYM_HOT
#define SYM_COLD
#endif
