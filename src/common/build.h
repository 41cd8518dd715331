#ifndef AQUA_COMMON_BUILD_H_
#define AQUA_COMMON_BUILD_H_

namespace aqua {

/// True in builds whose stack frames run large and whose code runs slow
/// (sanitizers, no optimizer). Limits that depend on frame size or step
/// speed are fixed per build from it: the matchers' depth limits
/// (`ListMatcher::kMaxDepth`, `TreeMatcher::kMaxDepth`) and the matcher
/// checkpoint stride (`obs::QueryContext::kCheckStride`).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
inline constexpr bool kLargeStackFrames = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kLargeStackFrames = true;
#else
inline constexpr bool kLargeStackFrames = false;
#endif
#else
inline constexpr bool kLargeStackFrames = false;
#endif

}  // namespace aqua

#endif  // AQUA_COMMON_BUILD_H_
