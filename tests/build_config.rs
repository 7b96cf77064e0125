//! Build-configuration guard.
//!
//! Every Krylov kernel is written in `Scalar::mul_add`.  On x86-64 that is a
//! single inlined FMA instruction only when the crate graph is compiled with
//! the `fma` target feature, which the repository's `.cargo/config.toml`
//! turns on.  Losing the flag changes no result (software and hardware FMA
//! round identically) but roughly halves paper-size solve speed, so nothing
//! else would notice; this test does.

#[test]
#[cfg(target_arch = "x86_64")]
fn x86_64_builds_use_the_hardware_fma() {
    let hardware_fma = cfg!(target_feature = "fma");
    assert!(
        hardware_fma,
        "built without the x86-64 `fma` target feature: every `mul_add` is an \
         out-of-line libm call.  The flag comes from `.cargo/config.toml` at the \
         repository root, which cargo only reads when started inside the repository; \
         a `RUSTFLAGS` environment variable replaces it (add `-C target-feature=+fma` \
         to it)"
    );
}
