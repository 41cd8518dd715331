#include "common/function_ref.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace aqua {
namespace {

int Apply(FunctionRef<int(int)> fn, int x) { return fn(x); }

TEST(FunctionRefTest, InvokesTheReferencedCallable) {
  int offset = 10;
  EXPECT_EQ(Apply([&offset](int x) { return x + offset; }, 5), 15);
  EXPECT_EQ(Apply([](int x) { return x * 2; }, 21), 42);
}

TEST(FunctionRefTest, IsTwoWordsAndTriviallyCopyable) {
  static_assert(sizeof(FunctionRef<void(size_t)>) == 2 * sizeof(void*));
  static_assert(std::is_trivially_copyable_v<FunctionRef<void()>>);
}

TEST(FunctionRefTest, RefersToTheCallableInsteadOfCopyingIt) {
  // A stateful functor: calls through the ref must mutate the original.
  struct Counter {
    int calls = 0;
    void operator()() { ++calls; }
  };
  Counter counter;
  FunctionRef<void()> ref(counter);
  ref();
  ref();
  EXPECT_EQ(counter.calls, 2);

  // Copies of the ref alias the same callable too.
  FunctionRef<void()> copy = ref;
  copy();
  EXPECT_EQ(counter.calls, 3);
}

TEST(FunctionRefTest, ConstCallableAndOverloadSelection) {
  struct Overloaded {
    std::string operator()(int) const { return "int"; }
    std::string operator()(const std::string&) const { return "string"; }
  };
  const Overloaded f;
  FunctionRef<std::string(int)> by_int(f);
  FunctionRef<std::string(const std::string&)> by_string(f);
  EXPECT_EQ(by_int(1), "int");
  EXPECT_EQ(by_string("x"), "string");
}

TEST(FunctionRefTest, VoidSignatureDiscardsTheResult) {
  int seen = 0;
  auto returns_int = [&seen](size_t v) {
    seen = static_cast<int>(v);
    return 7;
  };
  FunctionRef<void(size_t)> ref(returns_int);
  ref(3);
  EXPECT_EQ(seen, 3);
}

TEST(FunctionRefTest, ForwardsReferencesAndMoveOnlyArguments) {
  auto bump = [](int& v) { ++v; };
  FunctionRef<void(int&)> ref(bump);
  int value = 1;
  ref(value);
  EXPECT_EQ(value, 2);

  auto take = [](std::unique_ptr<int> p) { return *p; };
  FunctionRef<int(std::unique_ptr<int>)> owner(take);
  EXPECT_EQ(owner(std::make_unique<int>(9)), 9);
}

TEST(FunctionRefTest, NestedContinuationsSeeTheirOwnFrames) {
  // The matcher pattern: each level passes a fresh lambda down the stack
  // that captures the previous continuation by reference.
  std::string trace;
  struct Walker {
    std::string* trace;
    void Step(int depth, FunctionRef<void(int)> cont) const {
      if (depth == 0) {
        cont(0);
        return;
      }
      Step(depth - 1, [this, depth, &cont](int v) {
        *trace += std::to_string(depth);
        cont(v + depth);
      });
    }
  };
  Walker walker{&trace};
  int total = -1;
  walker.Step(4, [&total](int v) { total = v; });
  EXPECT_EQ(total, 1 + 2 + 3 + 4);
  EXPECT_EQ(trace, "1234");
}

}  // namespace
}  // namespace aqua
