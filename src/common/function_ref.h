#ifndef AQUA_COMMON_FUNCTION_REF_H_
#define AQUA_COMMON_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace aqua {

template <typename Sig>
class FunctionRef;

/// A non-owning reference to a callable: `std::function` without the
/// ownership. Building one stores a pointer to the callable plus a
/// trampoline, so it never allocates and copies as two words.
///
/// Lifetime contract: a FunctionRef borrows the callable it was built from
/// and must not outlive it. Use it only for parameters the callee invokes
/// during the call that receives them (continuations, visitors) and pass a
/// lambda at the call site: the lambda temporary lives to the end of the
/// full-expression, which covers the callee's whole run. Never store one in
/// a member, return one, or bind one to a local initialized from a
/// temporary lambda.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callables convert freely.
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_(&Invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R Invoke(void* obj, Args... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(*static_cast<F*>(obj), std::forward<Args>(args)...);
    } else {
      return std::invoke(*static_cast<F*>(obj), std::forward<Args>(args)...);
    }
  }

  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace aqua

#endif  // AQUA_COMMON_FUNCTION_REF_H_
