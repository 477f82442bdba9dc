// Field-description codec shared by the wire frames (protocol.cpp) and the
// session snapshot files (session.cpp).  Private to rfsm_service.
//
// A frame or nested record is described once, by an overload
//
//   template <class Io> void fields(Io& io, T& value) {
//     io(value.a, value.b, ...);  // wire order
//   }
//
// in namespace rfsm::service::wire.  FieldWriter and FieldReader run that
// description in each direction, so field order, wire types, enum range
// checks and list-count bounds live here once rather than in a hand-paired
// encoder and decoder per frame.  Wire types by field type:
//
//   std::uint32_t, int, bool, enums   u32 (bool decodes any nonzero as true;
//                                     enums are range-checked, WireEnum)
//   std::uint64_t, std::int64_t       u64 / i64
//   double                            u64 holding the IEEE-754 bit pattern
//   strings                           u32 length + bytes
//   std::vector<T>, std::map<K, V>    u32 count + elements (+ key, value)
//   anything else                     its own fields() description
//   carriedAs<W>(x)                   x converted to/from the wire type W
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "service/protocol.hpp"
#include "util/ipc.hpp"
#include "util/supervisor.hpp"

namespace rfsm::service::wire {

/// The last valid value of an enum carried on the wire, and its name for
/// error messages.  Decoding rejects anything above it with IpcError.
template <class E>
struct WireEnum;

template <>
struct WireEnum<WorkResult::Status> {
  static constexpr auto kLast = WorkResult::Status::kUnavailable;
  static constexpr const char* kName = "status";
};

template <>
struct WireEnum<SessionStatus> {
  static constexpr auto kLast = SessionStatus::kStaleEpoch;
  static constexpr const char* kName = "session status";
};

/// A field held as T but carried on the wire as W.
template <class W, class T>
struct Carried {
  using Wire = W;
  using Held = T;
  T& value;
};

template <class W, class T>
Carried<W, T> carriedAs(T& value) {
  return {value};
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V>
inline constexpr bool kIsMap<std::map<K, V>> = true;
template <class T>
inline constexpr bool kIsCarried = false;
template <class W, class T>
inline constexpr bool kIsCarried<Carried<W, T>> = true;

class FieldWriter {
 public:
  explicit FieldWriter(ipc::MessageWriter& writer) : writer_(writer) {}

  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }

 private:
  template <class T>
  void put(const T& value) {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      writer_.u64(value);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      writer_.i64(value);
    } else if constexpr (std::is_same_v<T, double>) {
      writer_.u64(std::bit_cast<std::uint64_t>(value));
    } else if constexpr (std::is_same_v<T, bool>) {
      writer_.u32(value ? 1 : 0);
    } else if constexpr (std::is_same_v<T, std::uint32_t> ||
                         std::is_same_v<T, int> || std::is_enum_v<T>) {
      writer_.u32(static_cast<std::uint32_t>(value));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      writer_.str(value);
    } else if constexpr (kIsVector<T>) {
      writer_.u32(static_cast<std::uint32_t>(value.size()));
      for (const auto& element : value) put(element);
    } else if constexpr (kIsMap<T>) {
      writer_.u32(static_cast<std::uint32_t>(value.size()));
      for (const auto& [key, mapped] : value) {
        put(key);
        put(mapped);
      }
    } else if constexpr (kIsCarried<T>) {
      put(static_cast<typename T::Wire>(value.value));
    } else {
      // Descriptions take a mutable reference so one body serves both
      // directions; the writer only reads through it.
      fields(*this, const_cast<T&>(value));
    }
  }

  ipc::MessageWriter& writer_;
};

/// Wire bytes of the smallest encoding of a T: that of its default value,
/// whose strings and lists are empty.  Bounds list counts on decode.
template <class T>
std::size_t minWireBytes() {
  static const std::size_t bytes = [] {
    ipc::MessageWriter writer;
    FieldWriter{writer}(T{});
    return writer.data().size();
  }();
  return bytes;
}

class FieldReader {
 public:
  explicit FieldReader(ipc::MessageReader& reader) : reader_(reader) {}

  template <class... T>
  void operator()(T&&... values) {
    (get(values), ...);
  }

 private:
  template <class T>
  void get(T& value) {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      value = reader_.u64();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      value = reader_.i64();
    } else if constexpr (std::is_same_v<T, double>) {
      value = std::bit_cast<double>(reader_.u64());
    } else if constexpr (std::is_same_v<T, bool>) {
      value = reader_.u32() != 0;
    } else if constexpr (std::is_same_v<T, std::uint32_t> ||
                         std::is_same_v<T, int>) {
      value = static_cast<T>(reader_.u32());
    } else if constexpr (std::is_enum_v<T>) {
      const std::uint32_t raw = reader_.u32();
      if (raw > static_cast<std::uint32_t>(WireEnum<T>::kLast))
        throw ipc::IpcError(std::string("unknown ") + WireEnum<T>::kName +
                            " code " + std::to_string(raw));
      value = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = reader_.str();
    } else if constexpr (kIsVector<T>) {
      using Element = typename T::value_type;
      const std::uint32_t n = reader_.count(minWireBytes<Element>());
      value.reserve(n);
      for (std::uint32_t k = 0; k < n; ++k) get(value.emplace_back());
    } else if constexpr (kIsMap<T>) {
      using Key = typename T::key_type;
      using Mapped = typename T::mapped_type;
      const std::uint32_t n =
          reader_.count(minWireBytes<Key>() + minWireBytes<Mapped>());
      for (std::uint32_t k = 0; k < n; ++k) {
        Key key{};
        Mapped mapped{};
        get(key);
        get(mapped);
        value.emplace(std::move(key), std::move(mapped));
      }
    } else if constexpr (kIsCarried<T>) {
      typename T::Wire wire{};
      get(wire);
      value.value = static_cast<typename T::Held>(wire);
    } else {
      fields(*this, value);
    }
  }

  ipc::MessageReader& reader_;
};

/// One whole frame: the type tag, then Msg's fields.
template <class Msg>
std::string encodeFrame(const Msg& message) {
  ipc::MessageWriter writer;
  writer.u32(static_cast<std::uint32_t>(Msg::kType));
  FieldWriter{writer}(message);
  return writer.take();
}

/// Checks the type tag, reads Msg's fields, and rejects trailing bytes.
template <class Msg>
Msg decodeFrame(const std::string& payload) {
  ipc::MessageReader reader(payload);
  const std::uint32_t tag = reader.u32();
  if (tag != static_cast<std::uint32_t>(Msg::kType))
    throw ipc::IpcError("unexpected message type " + std::to_string(tag) +
                        " (expected " +
                        std::to_string(static_cast<std::uint32_t>(Msg::kType)) +
                        ")");
  Msg message;
  FieldReader{reader}(message);
  reader.expectEnd();
  return message;
}

}  // namespace rfsm::service::wire
