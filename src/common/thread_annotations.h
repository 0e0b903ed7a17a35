// Clang -Wthread-safety annotation macros (no-op on other compilers).
//
// These expand to Clang's capability attributes so the static thread-safety
// analysis can prove, at compile time, that every access to shared mutable
// state happens under the capability (mutex) that guards it.  The spellings
// follow the Clang documentation / Abseil convention so the annotations read
// the same here as in any other annotated codebase:
//
//   class CAPABILITY("mutex") Mutex { ... };        a lockable type
//   int value_ GUARDED_BY(mu_);                     data needing mu_ held
//   void Grow() REQUIRES(mu_);                      caller must hold mu_
//   void Publish() EXCLUDES(mu_);                   caller must NOT hold mu_
//
// GCC (the local toolchain) does not implement the analysis; the macros
// vanish there, so annotated code builds identically everywhere.  CI runs
// the real check: the static-analysis job builds with clang and
// -Wthread-safety -Werror (see docs/STATIC_ANALYSIS.md for the matrix and
// how to reproduce it locally).
//
// Note that libstdc++'s std::mutex carries no capability attribute, so
// GUARDED_BY(some_std_mutex) would be ignored by the analysis.  Guarded
// members must name an annotated capability type: use osumac::Mutex from
// common/sync.h.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define OSUMAC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OSUMAC_THREAD_ANNOTATION(x)  // no-op on non-Clang
#endif

/// Marks a class as a capability (lockable) type; `x` is the capability name
/// used in diagnostics, e.g. CAPABILITY("mutex").
#define CAPABILITY(x) OSUMAC_THREAD_ANNOTATION(capability(x))

/// Marks a RAII guard class whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY OSUMAC_THREAD_ANNOTATION(scoped_lockable)

/// The member may only be read or written while holding the given capability.
#define GUARDED_BY(x) OSUMAC_THREAD_ANNOTATION(guarded_by(x))

/// The pointee may only be accessed while holding the given capability (the
/// pointer itself is unguarded).
#define PT_GUARDED_BY(x) OSUMAC_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities.
#define REQUIRES(...) \
  OSUMAC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function may only be called while holding the listed capabilities in
/// shared (reader) mode.
#define REQUIRES_SHARED(...) \
  OSUMAC_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and holds them on return.
#define ACQUIRE(...) \
  OSUMAC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities (they must be held).
#define RELEASE(...) \
  OSUMAC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function may only be called while NOT holding the listed capabilities
/// (it acquires them internally; calling with them held would deadlock).
#define EXCLUDES(...) OSUMAC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the capability guarding this object.
#define RETURN_CAPABILITY(x) OSUMAC_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis inside one function.  Every use must
/// say why in a comment and appear in the tools/osumac_lint waiver ledger.
#define NO_THREAD_SAFETY_ANALYSIS \
  OSUMAC_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Compile-time assertion that the capability is held (for helpers called
/// only with the lock already taken, where REQUIRES is not expressible).
#define ASSERT_CAPABILITY(x) OSUMAC_THREAD_ANNOTATION(assert_capability(x))
