// Communication models (Table 1 substrate): serializer round-trips, deep
// copy isolation, and the cost ordering local <= ijvm << incommunicado << rmi.
#include <gtest/gtest.h>

#include "bytecode/builder.h"
#include "comm/comm.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

struct CommFixture : ::testing::Test {
  void boot() {
    vm = std::make_unique<VM>();
    installSystemLibrary(*vm);
    fw = std::make_unique<Framework>(*vm);
  }
  void TearDown() override {
    fw.reset();
    vm.reset();
  }
  std::unique_ptr<VM> vm;
  std::unique_ptr<Framework> fw;
};

TEST_F(CommFixture, SerializerRoundTripsObjectGraph) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Node");
    cb.field("value", "I");
    cb.field("weight", "D");
    cb.field("label", "Ljava/lang/String;");
    cb.field("next", "Lt/Node;");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* node_cls = shared->find("t/Node");

  LocalRootScope roots(t);
  Object* a = roots.add(vm->allocObject(t, node_cls));
  Object* b = roots.add(vm->allocObject(t, node_cls));
  Object* label = roots.add(vm->newStringObject(t, "hello graph"));
  JField* value_f = node_cls->findField("value");
  JField* weight_f = node_cls->findField("weight");
  JField* label_f = node_cls->findField("label");
  JField* next_f = node_cls->findField("next");
  a->fields()[value_f->slot] = Value::ofInt(7);
  a->fields()[weight_f->slot] = Value::ofDouble(2.5);
  a->fields()[label_f->slot] = Value::ofRef(label);
  a->fields()[next_f->slot] = Value::ofRef(b);
  b->fields()[value_f->slot] = Value::ofInt(9);
  b->fields()[next_f->slot] = Value::ofRef(a);  // cycle

  std::string bytes = serializeGraph(*vm, a);
  Object* copy = deserializeGraph(*vm, t, bytes, roots);
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  ASSERT_NE(copy, nullptr);
  EXPECT_NE(copy, a);
  EXPECT_EQ(copy->fields()[value_f->slot].asInt(), 7);
  EXPECT_DOUBLE_EQ(copy->fields()[weight_f->slot].asDouble(), 2.5);
  Object* copy_label = copy->fields()[label_f->slot].asRef();
  ASSERT_NE(copy_label, nullptr);
  EXPECT_EQ(VM::stringValue(copy_label), "hello graph");
  Object* copy_b = copy->fields()[next_f->slot].asRef();
  ASSERT_NE(copy_b, nullptr);
  EXPECT_EQ(copy_b->fields()[value_f->slot].asInt(), 9);
  // Cycle preserved through back-references.
  EXPECT_EQ(copy_b->fields()[next_f->slot].asRef(), copy);
}

TEST_F(CommFixture, SerializerRejectsCorruptStream) {
  boot();
  JThread* t = vm->mainThread();
  std::string bytes = serializeGraph(*vm, nullptr);
  // Flip a payload byte: checksum must catch it.
  ASSERT_FALSE(bytes.empty());
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 1;
  LocalRootScope roots(t);
  Object* r = deserializeGraph(*vm, t, corrupt, roots);
  EXPECT_EQ(r, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  vm->clearPending(t);
}

TEST_F(CommFixture, DeepCopyCreatesDistinctObjectsChargedToReceiver) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Pair");
    cb.field("x", "I");
    cb.field("y", "I");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* pair_cls = shared->find("t/Pair");
  LocalRootScope roots(t);
  Object* src = roots.add(vm->allocObject(t, pair_cls));
  src->fields()[pair_cls->findField("x")->slot] = Value::ofInt(11);

  Object* dup = deepCopy(*vm, t, src, roots);
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(dup, src);
  EXPECT_EQ(dup->fields()[pair_cls->findField("x")->slot].asInt(), 11);
  // Mutating the copy does not affect the source (isolation of message
  // passing -- exactly what direct sharing in I-JVM does NOT do).
  dup->fields()[pair_cls->findField("x")->slot] = Value::ofInt(99);
  EXPECT_EQ(src->fields()[pair_cls->findField("x")->slot].asInt(), 11);
}

TEST_F(CommFixture, NativeBackedObjectsReportOwnerAndFieldPath) {
  // A graph that reaches a native-backed object cannot cross an isolate
  // boundary; the error must name the object's class, the isolate that
  // owns it, and the field path from the message root -- otherwise a
  // bundle author staring at a failed send has nothing to go on.
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Box");
    cb.field("left", "Ljava/lang/Object;");
    cb.field("right", "Ljava/lang/Object;");
    shared->define(cb.build());
    ClassBuilder nb("t/NativeThing");
    shared->define(nb.build());
  }
  JThread* t = vm->mainThread();
  JClass* box_cls = shared->find("t/Box");
  JClass* native_cls = shared->find("t/NativeThing");
  LocalRootScope roots(t);
  Object* box = roots.add(vm->allocObject(t, box_cls));
  Object* nat = roots.add(vm->allocNativeObject(
      t, native_cls, std::make_unique<NativePayload>()));
  ASSERT_NE(nat, nullptr);
  box->fields()[box_cls->findField("left")->slot] = Value::ofRef(nat);

  Object* dup = deepCopy(*vm, t, box, roots);
  EXPECT_EQ(dup, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  const std::string msg = vm->pendingMessage(t);
  EXPECT_NE(msg.find("t/NativeThing"), std::string::npos) << msg;
  const std::string owner =
      t->current_isolate.load(std::memory_order_relaxed)->name;
  EXPECT_NE(msg.find("owned by isolate '" + owner + "'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("at <root>.left"), std::string::npos) << msg;
  vm->clearPending(t);
}

TEST_F(CommFixture, AllFourModelsComputeTheSameResultAndOrderAsExpected) {
  boot();
  CommHarness harness(*fw);
  const i32 n = 200;  // the paper's 200 inter-bundle calls

  i64 t_local = harness.runLocal(n);
  EXPECT_EQ(harness.lastCounterValue(), n);  // local counter: n calls
  i64 t_ijvm = harness.runIJvm(n);
  EXPECT_EQ(harness.lastCounterValue(), n);  // remote counter: n calls
  i64 t_inc = harness.runIncommunicado(n);
  EXPECT_EQ(harness.lastCounterValue(), 2 * n);
  i64 t_rmi = harness.runRmi(n);
  EXPECT_EQ(harness.lastCounterValue(), 3 * n);

  // Shape of Table 1: direct calls are far cheaper than message passing.
  EXPECT_LT(t_ijvm, t_inc);
  EXPECT_LT(t_inc, t_rmi * 10);  // rmi >= inc within noise; assert not wildly off
  EXPECT_LT(t_local, t_inc);
  ::testing::Test::RecordProperty("local_ns", std::to_string(t_local));
  ::testing::Test::RecordProperty("ijvm_ns", std::to_string(t_ijvm));
  ::testing::Test::RecordProperty("incommunicado_ns", std::to_string(t_inc));
  ::testing::Test::RecordProperty("rmi_ns", std::to_string(t_rmi));
}

}  // namespace
}  // namespace ijvm
