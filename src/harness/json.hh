/**
 * @file
 * Minimal JSON value, writer, and parser — just enough for the sweep
 * runner to emit machine-readable result files and for tests (and
 * trajectory tooling) to round-trip them. Unsigned 64-bit integers
 * are preserved exactly; no external dependency.
 */

#ifndef PERSPECTIVE_HARNESS_JSON_HH
#define PERSPECTIVE_HARNESS_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace perspective::harness
{

/** A JSON value. Objects keep key order sorted (std::map) so that
 * emission is deterministic across runs and job counts. */
class Json
{
  public:
    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() : v_(nullptr) {}
    Json(std::nullptr_t) : v_(nullptr) {}
    Json(bool b) : v_(b) {}
    Json(std::uint64_t u) : v_(u) {}
    Json(int i) : v_(static_cast<std::uint64_t>(i)) {}
    Json(unsigned i) : v_(static_cast<std::uint64_t>(i)) {}
    Json(double d) : v_(d) {}
    Json(const char *s) : v_(std::string(s)) {}
    Json(std::string s) : v_(std::move(s)) {}
    Json(Array a) : v_(std::move(a)) {}
    Json(Object o) : v_(std::move(o)) {}

    bool isNull() const { return holds<std::nullptr_t>(); }
    bool isUint() const { return holds<std::uint64_t>(); }
    bool isNumber() const { return isUint() || holds<double>(); }
    bool isObject() const { return holds<Object>(); }

    bool asBool() const { return std::get<bool>(v_); }
    /** Integer value (exact for integers up to 2^64-1). */
    std::uint64_t asUint() const;
    double asDouble() const;
    const std::string &asString() const
    {
        return std::get<std::string>(v_);
    }
    const Array &asArray() const { return std::get<Array>(v_); }
    const Object &asObject() const { return std::get<Object>(v_); }

    /** Object member access; throws std::out_of_range if absent. */
    const Json &at(const std::string &key) const;
    bool contains(const std::string &key) const;

    /** Serialize; @p indent > 0 pretty-prints. */
    void write(std::ostream &os, int indent = 0) const;
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text as a single JSON document. Throws
     * std::runtime_error (with byte offset) on malformed input.
     */
    static Json parse(const std::string &text);

  private:
    template <typename T>
    bool
    holds() const
    {
        return std::holds_alternative<T>(v_);
    }

    void writeIndented(std::ostream &os, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, std::uint64_t, double,
                 std::string, Array, Object>
        v_;
};

/** Escape and quote @p s for JSON output. */
std::string jsonQuote(const std::string &s);

} // namespace perspective::harness

#endif // PERSPECTIVE_HARNESS_JSON_HH
