#include "comm/serializer.h"

#include <cstring>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "heap/object.h"
#include "obs/trace.h"
#include "support/strf.h"

namespace ijvm {

namespace {

// Instance fields of `cls` in a stable order (superclass first).
std::vector<JField*> instanceFields(JClass* cls) {
  std::vector<JField*> out;
  std::vector<JClass*> chain;
  for (JClass* c = cls; c != nullptr; c = c->super) chain.push_back(c);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (JField& f : (*it)->fields) {
      if (!f.isStatic()) out.push_back(&f);
    }
  }
  return out;
}

// Brackets a graph walk as a Running mutator. Attached host threads
// (comm servers, pool workers between tasks) sit in Blocked between guest
// calls, and a Blocked thread counts as parked: another thread's
// collection could run mid-walk and sweep a fresh copy before the walk
// roots it. While Running the thread is counted, so no stop-the-world
// (GC, terminateIsolate) completes until the walk polls, blocks or ends,
// and a collection its own allocation triggers runs as this thread's
// (collectGarbage sees a Running requester). A thread already Running --
// a guest inside a native -- is left untouched.
//
// The walk calls poll() before each node, where everything it has made is
// rooted, so a stop-the-world waits for one node, not for the whole graph
// (whose size the sender picks).
class RunningScope {
 public:
  RunningScope(VM& vm, JThread* t)
      : sp_(vm.safepoints()),
        t_(t),
        was_blocked_(t->state.load(std::memory_order_acquire) ==
                     ThreadState::Blocked) {
    if (!was_blocked_) return;
    sp_.exitBlocked(t_);
    t_->state.store(ThreadState::Running, std::memory_order_release);
  }
  ~RunningScope() {
    if (!was_blocked_) return;
    t_->state.store(ThreadState::Blocked, std::memory_order_release);
    sp_.enterBlocked(t_);
  }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;

  void poll() {
    if (sp_.stopRequested()) sp_.poll();
  }

 private:
  SafepointController& sp_;
  JThread* t_;
  const bool was_blocked_;
};

// True when `o` sits in `iso`'s interned-string table. Interning only
// ever inserts a freshly allocated string (VM::internString), so an
// object that is not interned now can never become interned later -- the
// check is stable without holding the lock across the donation.
bool isInternedIn(Isolate* iso, Object* o) {
  std::lock_guard<std::mutex> lock(iso->strings_mutex);
  auto it = iso->interned_strings.find(o->str());
  return it != iso->interned_strings.end() && it->second == o;
}

// The shared copy/donate walker behind deepCopy and transferGraph.
// `sender` == nullptr disables donation (pure deep copy).
// Every node it makes is rooted in the caller's `roots`, so the result is
// still rooted when the walk stops counting as Running. (Local roots are
// a stack: a scope of the walk's own would drop anything added to the
// caller's while it was open.)
Object* copyOrTransfer(VM& vm, JThread* receiver, Isolate* sender,
                       Object* src, TransferStats* stats,
                       LocalRootScope& roots) {
  if (src == nullptr) return nullptr;
  RunningScope running(vm, receiver);
  std::unordered_map<Object*, Object*> copies;
  Isolate* recv_iso = receiver->current_isolate.load(std::memory_order_relaxed);

  bool donate_enabled = false;
#ifndef IJVM_DISABLE_ZERO_COPY
  donate_enabled = vm.options().comm_zero_copy && vm.options().isolation &&
                   sender != nullptr && sender != recv_iso;
#else
  (void)sender;
#endif

  // Field/element path to the node being visited, for error reporting
  // ("<root>.payload[3]").
  std::vector<std::string> path;
  auto pathString = [&]() {
    std::string p = "<root>";
    for (const std::string& seg : path) p += seg;
    return p;
  };

  // Donates `o` (leaf kinds only): re-keys it to the receiver and moves
  // its bytes from the sender's account to the receiver's. The walk runs
  // Running, and the decisive checks repeat with no poll, block or
  // allocation between them and the charge transfer, so the donation
  // cannot interleave with a GC's charge recomputation or with
  // terminateIsolate (docs/comm.md, "Donation vs termination"). Returns
  // nullptr when ineligible; the caller falls back to copying.
  auto tryDonate = [&](Object* o) -> Object* {
    // Cheap conservative pre-checks (racy reads are fine; the decisive
    // repeat follows the lock-taking intern check).
    if (o->creator_isolate != sender->id || o->monitor != nullptr) {
      return nullptr;
    }
    if (o->kind == ObjKind::String && isInternedIn(sender, o)) return nullptr;
    if (!sender->isActive() || !recv_iso->isActive()) return nullptr;
    if (o->creator_isolate != sender->id || o->monitor != nullptr) {
      return nullptr;
    }
    o->creator_isolate = recv_iso->id;
    const u64 bytes = o->byte_size;
    if (vm.options().accounting) {
      // Debit the receiver before crediting the sender so a concurrent
      // memory-limit check never observes the bytes as unowned.
      recv_iso->stats.donated_bytes_delta.fetch_add(
          static_cast<i64>(bytes), std::memory_order_relaxed);
      sender->stats.donated_bytes_delta.fetch_sub(
          static_cast<i64>(bytes), std::memory_order_relaxed);
      recv_iso->stats.bytes_donated_in.fetch_add(bytes, std::memory_order_relaxed);
      sender->stats.bytes_donated_out.fetch_add(bytes, std::memory_order_relaxed);
      recv_iso->stats.objects_donated_in.fetch_add(1, std::memory_order_relaxed);
      sender->stats.objects_donated_out.fetch_add(1, std::memory_order_relaxed);
    }
    if (stats != nullptr) {
      stats->objects_donated += 1;
      stats->bytes_donated += bytes;
    }
    return o;
  };

  std::function<Object*(Object*)> walk = [&](Object* o) -> Object* {
    if (o == nullptr) return nullptr;
    if (auto it = copies.find(o); it != copies.end()) return it->second;
    running.poll();
    // Donation fast path: only leaf kinds (primitive arrays, strings) are
    // eligible, so a successful donation never recurses.
    if (donate_enabled &&
        (o->kind == ObjKind::String || o->kind == ObjKind::ArrayInt ||
         o->kind == ObjKind::ArrayLong || o->kind == ObjKind::ArrayDouble)) {
      if (Object* d = tryDonate(o)) {
        copies.emplace(o, d);
        roots.add(d);
        return d;
      }
    }
    Object* dup = nullptr;
    switch (o->kind) {
      case ObjKind::String:
        dup = vm.newStringObject(receiver, o->str());
        break;
      case ObjKind::ArrayInt:
      case ObjKind::ArrayLong:
      case ObjKind::ArrayDouble: {
        dup = vm.allocArrayObject(receiver, o->cls, o->length);
        if (dup != nullptr && o->length > 0) {
          size_t elem = o->kind == ObjKind::ArrayInt ? sizeof(i32) : sizeof(i64);
          std::memcpy(dup->intElems(), o->intElems(),
                      elem * static_cast<size_t>(o->length));
        }
        break;
      }
      case ObjKind::ArrayRef: {
        dup = vm.allocArrayObject(receiver, o->cls, o->length);
        if (dup != nullptr) {
          copies.emplace(o, dup);
          roots.add(dup);
          for (i32 i = 0; i < o->length; ++i) {
            path.push_back(strf("[%d]", i));
            dup->refElems()[i] = walk(o->refElems()[i]);
            path.pop_back();
            if (receiver->pending_exception != nullptr) return nullptr;
          }
          if (stats != nullptr) {
            stats->objects_copied += 1;
            stats->bytes_copied += dup->byte_size;
          }
          return dup;
        }
        break;
      }
      case ObjKind::Plain: {
        dup = vm.allocObject(receiver, o->cls);
        if (dup != nullptr) {
          copies.emplace(o, dup);
          roots.add(dup);
          for (JField* f : instanceFields(o->cls)) {
            Value v = o->fields()[f->slot];
            if (v.kind == Kind::Ref) {
              path.push_back("." + f->name);
              dup->fields()[f->slot] = Value::ofRef(walk(v.ref));
              path.pop_back();
              if (receiver->pending_exception != nullptr) return nullptr;
            } else {
              dup->fields()[f->slot] = v;
            }
          }
          if (stats != nullptr) {
            stats->objects_copied += 1;
            stats->bytes_copied += dup->byte_size;
          }
          return dup;
        }
        break;
      }
      case ObjKind::Native: {
        Isolate* owner = vm.isolateById(o->creator_isolate);
        vm.throwGuest(
            receiver, "java/lang/IllegalArgumentException",
            strf("cannot copy native-backed object: %s (owned by isolate "
                 "'%s' #%d) at %s",
                 o->cls->name.c_str(),
                 owner != nullptr ? owner->name.c_str() : "?",
                 o->creator_isolate, pathString().c_str()));
        return nullptr;
      }
    }
    if (dup == nullptr) {
      if (receiver->pending_exception == nullptr) {
        vm.throwGuest(receiver, "java/lang/OutOfMemoryError", "deepCopy");
      }
      return nullptr;
    }
    copies.emplace(o, dup);
    roots.add(dup);
    if (stats != nullptr) {
      stats->objects_copied += 1;
      stats->bytes_copied += dup->byte_size;
    }
    return dup;
  };

  return walk(src);
}

}  // namespace

Object* deepCopy(VM& vm, JThread* receiver, Object* src, LocalRootScope& keep) {
  return copyOrTransfer(vm, receiver, /*sender=*/nullptr, src, nullptr, keep);
}

Object* transferGraph(VM& vm, JThread* receiver, Isolate* sender, Object* root,
                      LocalRootScope& keep, TransferStats* stats) {
  TransferStats local;
  if (stats == nullptr) stats = &local;
  Object* out = copyOrTransfer(vm, receiver, sender, root, stats, keep);
  if (stats->objects_donated > 0 && obs::traceEnabled()) {
    Isolate* recv_iso =
        receiver->current_isolate.load(std::memory_order_relaxed);
    obs::emit(obs::Ev::CommDonate, obs::Ph::Instant, recv_iso->id,
              stats->bytes_donated, stats->objects_donated);
    obs::recordLatency(obs::Lat::DonatedBytes, stats->bytes_donated);
  }
  return out;
}

Object* transferGraph(VM& vm, JThread* receiver, Isolate* sender, Object* root,
                      TransferStats* stats) {
  IJVM_CHECK(receiver->state.load(std::memory_order_acquire) ==
                 ThreadState::Running,
             "transferGraph without a root scope needs a Running caller");
  LocalRootScope keep(receiver);
  return transferGraph(vm, receiver, sender, root, keep, stats);
}

// ------------------------------------------------------------- serialize

namespace {

class Writer {
 public:
  void tag(const char* t) { out_ << t << ' '; }
  void num(i64 v) { out_ << v << ' '; }
  void dbl(double v) { out_ << strf("%.17g", v) << ' '; }
  void str(const std::string& s) {
    out_ << s.size() << ':' << s << ' ';
  }
  std::string finish() {
    std::string body = out_.str();
    // RMI-style integrity footer: a checksum over the payload.
    u32 sum = 0;
    for (unsigned char c : body) sum = sum * 131 + c;
    return strf("IJSER1 %zu %u\n", body.size(), sum) + body;
  }

 private:
  std::ostringstream out_;
};

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool open() {
    if (s_.rfind("IJSER1 ", 0) != 0) return false;
    pos_ = 7;
    i64 len = num();
    u32 sum = static_cast<u32>(num());
    if (s_[pos_] != '\n') return false;
    ++pos_;
    if (pos_ + static_cast<size_t>(len) != s_.size()) return false;
    u32 actual = 0;
    for (size_t i = pos_; i < s_.size(); ++i) {
      actual = actual * 131 + static_cast<unsigned char>(s_[i]);
    }
    return actual == sum;
  }

  std::string word() {
    skipSpace();
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ' && s_[pos_] != '\n') ++pos_;
    return s_.substr(start, pos_ - start);
  }
  i64 num() {
    std::string w = word();
    return w.empty() ? 0 : std::stoll(w);
  }
  double dbl() {
    std::string w = word();
    return w.empty() ? 0 : std::stod(w);
  }
  std::string str() {
    skipSpace();
    size_t colon = s_.find(':', pos_);
    if (colon == std::string::npos) {
      ok_ = false;
      return {};
    }
    size_t len = static_cast<size_t>(std::stoll(s_.substr(pos_, colon - pos_)));
    pos_ = colon + 1;
    if (pos_ + len > s_.size()) {
      ok_ = false;
      return {};
    }
    std::string out = s_.substr(pos_, len);
    pos_ += len;
    return out;
  }
  bool ok() const { return ok_; }

 private:
  void skipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n')) ++pos_;
  }
  const std::string& s_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string serializeGraph(VM& vm, Object* root) {
  (void)vm;
  Writer w;
  std::unordered_map<Object*, i64> ids;
  i64 next_id = 0;

  std::function<void(Object*)> emit = [&](Object* o) {
    if (o == nullptr) {
      w.tag("NULL");
      return;
    }
    if (auto it = ids.find(o); it != ids.end()) {
      w.tag("BACK");
      w.num(it->second);
      return;
    }
    const i64 id = next_id++;
    ids.emplace(o, id);
    switch (o->kind) {
      case ObjKind::String:
        w.tag("STR");
        w.num(id);
        w.str(o->str());
        break;
      case ObjKind::ArrayInt:
        w.tag("ARI");
        w.num(id);
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) w.num(o->intElems()[i]);
        break;
      case ObjKind::ArrayLong:
        w.tag("ARL");
        w.num(id);
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) w.num(o->longElems()[i]);
        break;
      case ObjKind::ArrayDouble:
        w.tag("ARD");
        w.num(id);
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) w.dbl(o->doubleElems()[i]);
        break;
      case ObjKind::ArrayRef:
        w.tag("ARR");
        w.num(id);
        w.str(o->cls->elem_class != nullptr ? o->cls->elem_class->name
                                            : "java/lang/Object");
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) emit(o->refElems()[i]);
        break;
      case ObjKind::Plain: {
        std::vector<JField*> fields = instanceFields(o->cls);
        w.tag("OBJ");
        w.num(id);
        w.str(o->cls->name);
        w.num(static_cast<i64>(fields.size()));
        for (JField* f : fields) {
          Value v = o->fields()[f->slot];
          switch (v.kind) {
            case Kind::Int:
              w.tag("I");
              w.num(v.asInt());
              break;
            case Kind::Long:
              w.tag("J");
              w.num(v.asLong());
              break;
            case Kind::Double:
              w.tag("D");
              w.dbl(v.asDouble());
              break;
            default:
              w.tag("R");
              emit(v.asRef());
              break;
          }
        }
        break;
      }
      case ObjKind::Native:
        // Not serializable; encode as null (callers validate beforehand).
        w.tag("NULL");
        break;
    }
  };

  emit(root);
  return w.finish();
}

Object* deserializeGraph(VM& vm, JThread* receiver, const std::string& bytes,
                         LocalRootScope& roots) {
  Reader r(bytes);
  if (!r.open()) {
    vm.throwGuest(receiver, "java/lang/IllegalArgumentException",
                  "corrupt serialized stream");
    return nullptr;
  }
  RunningScope running(vm, receiver);  // as in copyOrTransfer
  std::unordered_map<i64, Object*> ids;
  Isolate* iso = receiver->current_isolate.load(std::memory_order_relaxed);

  std::function<Object*()> parse = [&]() -> Object* {
    std::string tag = r.word();
    if (!r.ok()) return nullptr;
    if (tag == "NULL") return nullptr;
    running.poll();  // every node parsed so far is in `roots`
    if (tag == "BACK") {
      i64 id = r.num();
      auto it = ids.find(id);
      return it == ids.end() ? nullptr : it->second;
    }
    if (tag == "STR") {
      i64 id = r.num();
      Object* s = vm.newStringObject(receiver, r.str());
      if (s != nullptr) {
        ids.emplace(id, s);
        roots.add(s);
      }
      return s;
    }
    if (tag == "ARI" || tag == "ARL" || tag == "ARD") {
      i64 id = r.num();
      i32 len = static_cast<i32>(r.num());
      const char* cls_name = tag == "ARI" ? "[I" : (tag == "ARL" ? "[J" : "[D");
      JClass* cls = vm.registry().arrayClass(cls_name);
      Object* arr = vm.allocArrayObject(receiver, cls, len);
      if (arr == nullptr) return nullptr;
      ids.emplace(id, arr);
      roots.add(arr);
      for (i32 i = 0; i < len; ++i) {
        if (tag == "ARI") {
          arr->intElems()[i] = static_cast<i32>(r.num());
        } else if (tag == "ARL") {
          arr->longElems()[i] = r.num();
        } else {
          arr->doubleElems()[i] = r.dbl();
        }
      }
      return arr;
    }
    if (tag == "ARR") {
      i64 id = r.num();
      std::string elem_name = r.str();
      i32 len = static_cast<i32>(r.num());
      JClass* cls =
          vm.registry().resolve(iso->loader, "[L" + elem_name + ";");
      if (cls == nullptr) {
        vm.throwGuest(receiver, "java/lang/NoClassDefFoundError", elem_name);
        return nullptr;
      }
      Object* arr = vm.allocArrayObject(receiver, cls, len);
      if (arr == nullptr) return nullptr;
      ids.emplace(id, arr);
      roots.add(arr);
      for (i32 i = 0; i < len; ++i) {
        arr->refElems()[i] = parse();
        if (receiver->pending_exception != nullptr) return nullptr;
      }
      return arr;
    }
    if (tag == "OBJ") {
      i64 id = r.num();
      std::string cls_name = r.str();
      i64 nfields = r.num();
      JClass* cls = vm.registry().resolve(iso->loader, cls_name);
      if (cls == nullptr) {
        vm.throwGuest(receiver, "java/lang/NoClassDefFoundError", cls_name);
        return nullptr;
      }
      Object* obj = vm.allocObject(receiver, cls);
      if (obj == nullptr) return nullptr;
      ids.emplace(id, obj);
      roots.add(obj);
      std::vector<JField*> fields = instanceFields(cls);
      if (static_cast<i64>(fields.size()) != nfields) {
        vm.throwGuest(receiver, "java/lang/IllegalArgumentException",
                      "field count mismatch for " + cls_name);
        return nullptr;
      }
      for (JField* f : fields) {
        std::string kind = r.word();
        if (kind == "I") {
          obj->fields()[f->slot] = Value::ofInt(static_cast<i32>(r.num()));
        } else if (kind == "J") {
          obj->fields()[f->slot] = Value::ofLong(r.num());
        } else if (kind == "D") {
          obj->fields()[f->slot] = Value::ofDouble(r.dbl());
        } else if (kind == "R") {
          obj->fields()[f->slot] = Value::ofRef(parse());
          if (receiver->pending_exception != nullptr) return nullptr;
        } else {
          vm.throwGuest(receiver, "java/lang/IllegalArgumentException",
                        "bad field tag '" + kind + "'");
          return nullptr;
        }
      }
      return obj;
    }
    vm.throwGuest(receiver, "java/lang/IllegalArgumentException",
                  "bad stream tag '" + tag + "'");
    return nullptr;
  };

  Object* result = parse();
  if (!r.ok() && receiver->pending_exception == nullptr) {
    vm.throwGuest(receiver, "java/lang/IllegalArgumentException",
                  "truncated serialized stream");
    return nullptr;
  }
  return result;
}

}  // namespace ijvm
