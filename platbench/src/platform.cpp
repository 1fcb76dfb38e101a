#include <thread>

#include "bytecode/builder.h"
#include "phases.h"
#include "stdlib/system_library.h"
#include "support/strf.h"
#include "workloads/bundles.h"

namespace platbench {

using namespace ijvm;

namespace {

constexpr int kServers = 4;

// The request record of the copy path, shaped like the message of the
// repository's own copying request path (comm/Request in src/comm/comm.cpp):
// platbench/Request { String method; int seq; }. Defined in the
// framework's loader so the client and every server resolve the same
// class.
ClassDef requestClass() {
  ClassBuilder cb("platbench/Request");
  cb.field("method", "Ljava/lang/String;");
  cb.field("seq", "I");
  return cb.build();
}

// srv<k>/Handler with the two request handlers. Both fold their input as
// h = h * 31 + x, the same fold the generator computes in C++.
//   ints([I)I                        -- every element
//   request(Lplatbench/Request;)I    -- seq, then method.hashCode()
ClassDef handlerClass(int k) {
  ClassBuilder cb(strf("srv%d/Handler", k));
  {
    auto& m = cb.method("ints", "([I)I", ACC_PUBLIC | ACC_STATIC);
    Label loop = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1).iconst(0).istore(2);
    m.bind(loop).iload(1).aload(0).arraylength().ifIcmpGe(done);
    m.iload(2).iconst(31).imul().aload(0).iload(1).iaload().iadd().istore(2);
    m.iinc(1, 1).gotoLabel(loop);
    m.bind(done).iload(2).ireturn();
  }
  {
    auto& m = cb.method("request", "(Lplatbench/Request;)I", ACC_PUBLIC | ACC_STATIC);
    m.aload(0).getfield("platbench/Request", "seq", "I").iconst(31).imul();
    m.aload(0).getfield("platbench/Request", "method", "Ljava/lang/String;");
    m.invokevirtual("java/lang/String", "hashCode", "()I").iadd().ireturn();
  }
  return cb.build();
}

Bundle* installLibraryBundle(Framework& fw, const std::string& name,
                             std::vector<ClassDef> classes) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  desc.classes = std::move(classes);
  Bundle* b = fw.install(std::move(desc));
  fw.start(b);
  return b;
}

}  // namespace

Platform::Platform() {
  // The shipped defaults -- isolation, accounting, the JIT ladder, the
  // profiler and the CPU sampler on, the 8 MiB GC threshold -- except that
  // the mutator pool leaves one core to the request generator, so the
  // load and the platform together stay within the cores the host has.
  VmOptions opts = VmOptions::isolated();
  opts.mutator_threads = std::max(2u, std::thread::hardware_concurrency()) - 1;
  vm = std::make_unique<VM>(opts);
  installSystemLibrary(*vm);
  fw = std::make_unique<Framework>(*vm);
}

Platform::~Platform() {
  if (gen != nullptr) vm->detachThread(gen);
  fw.reset();
  vm.reset();
}

void Platform::installBundles() {
  spec = specWorkloads();
  for (const SpecWorkload& wl : spec) {
    spec_bundles.push_back(installLibraryBundle(*fw, "spec." + wl.name, wl.classes));
  }

  req_cls = fw->frameworkIsolate()->loader->define(requestClass());
  int_array_cls = vm->registry().arrayClass("[I");
  client = installLibraryBundle(*fw, "serve.client", {});
  for (int k = 0; k < kServers; ++k) {
    servers.push_back(
        installLibraryBundle(*fw, strf("serve.srv%d", k), {handlerClass(k)}));
  }
  gen = vm->attachThread("serve.generator", client->isolate());

  defineCounterApi(*fw);
}

}  // namespace platbench
