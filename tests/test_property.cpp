// Property-based suites (parameterized sweeps over deterministic seeds):
//  1. random integer expression programs: the generated bytecode must
//     compute the same value as a host-side evaluator (differential
//     testing of the arithmetic/stack subset of the interpreter);
//  2. random object graphs: after a GC, exactly the reachable subset
//     survives, and the serializer round-trips the reachable graph;
//  3. random call chains across two isolates: the thread's isolate
//     reference is always restored correctly (migration is balanced).
#include <gtest/gtest.h>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "support/rng.h"

namespace ijvm {
namespace {

// ---------------------------------------------------------- expressions

// Builds a random expression over locals {a=slot0, b=slot1} while emitting
// the equivalent bytecode and evaluating host-side in lockstep.
struct ExprGen {
  Rng rng;
  MethodBuilder& m;
  i32 a, b;
  int budget;

  ExprGen(u64 seed, MethodBuilder& mb, i32 av, i32 bv, int nodes)
      : rng(seed), m(mb), a(av), b(bv), budget(nodes) {}

  static i32 wrap(i64 v) { return static_cast<i32>(static_cast<u64>(v)); }

  // Emits code leaving one int on the stack; returns the host value.
  i32 gen() {
    if (budget-- <= 0 || rng.nextBounded(4) == 0) {
      switch (rng.nextBounded(3)) {
        case 0: {
          i32 c = static_cast<i32>(rng.nextInt() % 1000);
          m.iconst(c);
          return c;
        }
        case 1:
          m.iload(0);
          return a;
        default:
          m.iload(1);
          return b;
      }
    }
    i32 lhs = gen();
    i32 rhs = gen();
    switch (rng.nextBounded(6)) {
      case 0:
        m.iadd();
        return wrap(static_cast<i64>(lhs) + rhs);
      case 1:
        m.isub();
        return wrap(static_cast<i64>(lhs) - rhs);
      case 2:
        m.imul();
        return wrap(static_cast<i64>(lhs) * rhs);
      case 3:
        m.ixor();
        return lhs ^ rhs;
      case 4:
        m.ior();
        return lhs | rhs;
      default:
        m.iand();
        return lhs & rhs;
    }
  }
};

class ExprProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExprProperty, GuestMatchesHostEvaluator) {
  const u64 seed = 0x1234u + static_cast<u64>(GetParam()) * 7919u;
  VM vm;
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  vm.createIsolate(app, "app");

  Rng args_rng(seed ^ 0xabcdef);
  const i32 a = args_rng.nextInt() % 10000;
  const i32 b = args_rng.nextInt() % 10000;

  ClassBuilder cb("p/Expr" + std::to_string(GetParam()));
  auto& m = cb.method("f", "(II)I", ACC_PUBLIC | ACC_STATIC);
  ExprGen gen(seed, m, a, b, 40);
  i32 expected = gen.gen();
  m.ireturn();
  std::string cls = cb.name();
  app->define(cb.build());

  Value r = vm.callStaticIn(vm.mainThread(), app, cls, "f", "(II)I",
                            {Value::ofInt(a), Value::ofInt(b)});
  ASSERT_EQ(vm.mainThread()->pending_exception, nullptr)
      << vm.pendingMessage(vm.mainThread());
  EXPECT_EQ(r.asInt(), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty, ::testing::Range(0, 24));

// -------------------------------------------------------- object graphs

class GraphProperty : public ::testing::TestWithParam<int> {};

TEST_P(GraphProperty, GcKeepsExactlyTheReachableSubset) {
  const u64 seed = 0x9876u + static_cast<u64>(GetParam()) * 104729u;
  VM vm;
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  Isolate* iso = vm.createIsolate(app, "app");

  ClassBuilder cb("p/GNode");
  cb.field("l", "Lp/GNode;");
  cb.field("r", "Lp/GNode;");
  JClass* node_cls = app->define(cb.build());
  JField* lf = node_cls->findField("l");
  JField* rf = node_cls->findField("r");

  Rng rng(seed);
  JThread* t = vm.mainThread();
  const int n = 40;
  std::vector<Object*> nodes;
  GlobalRef* root_ref = nullptr;
  {
    LocalRootScope roots(t);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(roots.add(vm.allocObject(t, node_cls)));
    }
    // Random edges (indices may go forward or backward: cycles allowed).
    for (int i = 0; i < n; ++i) {
      if (rng.nextBounded(3) != 0) {
        nodes[static_cast<size_t>(i)]->fields()[lf->slot] =
            Value::ofRef(nodes[rng.nextBounded(n)]);
      }
      if (rng.nextBounded(3) != 0) {
        nodes[static_cast<size_t>(i)]->fields()[rf->slot] =
            Value::ofRef(nodes[rng.nextBounded(n)]);
      }
    }
    root_ref = vm.addGlobalRef(nodes[0], iso);
  }

  // Host-side reachability from node 0.
  std::vector<bool> reachable(n, false);
  std::vector<int> work{0};
  reachable[0] = true;
  while (!work.empty()) {
    Object* o = nodes[static_cast<size_t>(work.back())];
    work.pop_back();
    for (JField* f : {lf, rf}) {
      Object* child = o->fields()[f->slot].asRef();
      if (child == nullptr) continue;
      for (int i = 0; i < n; ++i) {
        if (nodes[static_cast<size_t>(i)] == child &&
            !reachable[static_cast<size_t>(i)]) {
          reachable[static_cast<size_t>(i)] = true;
          work.push_back(i);
        }
      }
    }
  }

  vm.collectGarbage(t, nullptr);

  for (int i = 0; i < n; ++i) {
    bool found = false;
    vm.heap().forEachObject([&](Object* o) {
      if (o == nodes[static_cast<size_t>(i)]) found = true;
    });
    EXPECT_EQ(found, reachable[static_cast<size_t>(i)])
        << "node " << i << " seed " << seed;
  }
  vm.removeGlobalRef(root_ref);
}

TEST_P(GraphProperty, SerializerRoundTripsRandomGraphIsomorphically) {
  const u64 seed = 0x5555u + static_cast<u64>(GetParam()) * 2654435761u;
  VM vm;
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  vm.createIsolate(app, "app");

  ClassBuilder cb("p/SNode");
  cb.field("tag", "I");
  cb.field("l", "Lp/SNode;");
  cb.field("r", "Lp/SNode;");
  JClass* node_cls = app->define(cb.build());
  JField* tagf = node_cls->findField("tag");
  JField* lf = node_cls->findField("l");
  JField* rf = node_cls->findField("r");

  Rng rng(seed);
  JThread* t = vm.mainThread();
  const int n = 16;
  LocalRootScope roots(t);
  std::vector<Object*> nodes;
  for (int i = 0; i < n; ++i) {
    Object* o = roots.add(vm.allocObject(t, node_cls));
    o->fields()[tagf->slot] = Value::ofInt(static_cast<i32>(rng.nextBounded(1000)));
    nodes.push_back(o);
  }
  for (int i = 0; i < n; ++i) {
    if (rng.nextBounded(2) != 0) {
      nodes[static_cast<size_t>(i)]->fields()[lf->slot] =
          Value::ofRef(nodes[rng.nextBounded(n)]);
    }
    if (rng.nextBounded(2) != 0) {
      nodes[static_cast<size_t>(i)]->fields()[rf->slot] =
          Value::ofRef(nodes[rng.nextBounded(n)]);
    }
  }

  std::string bytes = serializeGraph(vm, nodes[0]);
  Object* copy = deserializeGraph(vm, t, bytes, roots);
  ASSERT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
  ASSERT_NE(copy, nullptr);

  // Isomorphism check: parallel walk with a visited map.
  std::unordered_map<Object*, Object*> paired;
  std::function<bool(Object*, Object*)> same = [&](Object* x, Object* y) {
    if (x == nullptr || y == nullptr) return x == nullptr && y == nullptr;
    if (auto it = paired.find(x); it != paired.end()) return it->second == y;
    paired.emplace(x, y);
    if (x->fields()[tagf->slot].asInt() != y->fields()[tagf->slot].asInt()) {
      return false;
    }
    return same(x->fields()[lf->slot].asRef(), y->fields()[lf->slot].asRef()) &&
           same(x->fields()[rf->slot].asRef(), y->fields()[rf->slot].asRef());
  };
  EXPECT_TRUE(same(nodes[0], copy)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphProperty, ::testing::Range(0, 16));

// ----------------------------------------------------- migration balance

class MigrationProperty : public ::testing::TestWithParam<int> {};

TEST_P(MigrationProperty, IsolateReferenceAlwaysRestored) {
  // Random-depth mutual recursion *across isolates*: two sibling bundles
  // implement a shared interface and ping-pong through peer references.
  // After every outermost call the thread must be back home, and the
  // result proves the full chain executed.
  const u64 seed = 0x777u + static_cast<u64>(GetParam()) * 31337u;
  VM vm;
  installSystemLibrary(vm);
  ClassLoader* shared = vm.registry().newLoader("shared");
  {
    ClassBuilder itf("m/Step", "", ACC_PUBLIC | ACC_INTERFACE);
    itf.abstractMethod("step", "(I)I");
    shared->define(itf.build());
  }
  auto make_impl = [&](ClassLoader* loader, const std::string& cls, i32 add) {
    ClassBuilder cb(cls);
    cb.addInterface("m/Step");
    cb.field("peer", "Lm/Step;");
    auto& s = cb.method("step", "(I)I");
    Label base = s.newLabel();
    s.iload(1).ifle(base);
    s.aload(0).getfield(cls, "peer", "Lm/Step;");
    s.iload(1).iconst(1).isub();
    s.invokeinterface("m/Step", "step", "(I)I");
    s.iconst(add).iadd().ireturn();
    s.bind(base).iconst(0).ireturn();
    return loader->define(cb.build());
  };
  ClassLoader* l1 = vm.registry().newLoader("one", shared);
  ClassLoader* l2 = vm.registry().newLoader("two", shared);
  JClass* a_cls = make_impl(l1, "m/A", 1);
  JClass* b_cls = make_impl(l2, "m/B", 2);

  Isolate* home = vm.createIsolate(l1, "one");  // becomes Isolate0
  Isolate* iso2 = vm.createIsolate(l2, "two");
  (void)iso2;

  JThread* t = vm.mainThread();
  LocalRootScope roots(t);
  Object* a = roots.add(vm.allocObject(t, a_cls));
  Object* b = roots.add(vm.allocObject(t, b_cls));
  a->fields()[a_cls->findField("peer")->slot] = Value::ofRef(b);
  b->fields()[b_cls->findField("peer")->slot] = Value::ofRef(a);

  Rng rng(seed);
  const u64 migrations_before = vm.interIsolateCalls();
  for (int round = 0; round < 8; ++round) {
    i32 depth = static_cast<i32>(rng.nextBounded(30));
    Value r = vm.callVirtual(t, a, "step", "(I)I", {Value::ofInt(depth)});
    ASSERT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
    // A adds 1 per level, B adds 2, alternating starting at A.
    i32 expected = 0;
    for (i32 d = depth, level = 0; d > 0; --d, ++level) {
      expected += (level % 2 == 0) ? 1 : 2;
    }
    EXPECT_EQ(r.asInt(), expected) << "seed " << seed;
    EXPECT_EQ(t->current_isolate.load(), home);
  }
  // Every B-level is an inter-isolate hop (plus the hops back).
  EXPECT_GT(vm.interIsolateCalls(), migrations_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace ijvm
