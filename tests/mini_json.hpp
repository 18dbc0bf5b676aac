#ifndef TRANSFW_TESTS_MINI_JSON_HPP
#define TRANSFW_TESTS_MINI_JSON_HPP

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

/**
 * A strict, minimal JSON reader for tests (the test image has no JSON
 * library): enough to read the observability exporters' documents
 * back and to reject the classic exporter bugs (stray commas,
 * unterminated strings, bare words, trailing garbage).
 */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    } type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> items;                          ///< Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object

    /** Member @p key of an object, or nullptr. */
    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }
    /** Numeric member @p key, or 0 when absent. */
    double
    num(const std::string &key) const
    {
        const JsonValue *v = get(key);
        return v && v->type == Type::Number ? v->number : 0;
    }
    /** String member @p key, or "" when absent. */
    std::string
    str(const std::string &key) const
    {
        const JsonValue *v = get(key);
        return v && v->type == Type::String ? v->string : std::string();
    }
};

namespace mini_json_detail {

struct Parser
{
    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }
    bool
    eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    bool
    word(const char *w)
    {
        std::string lit(w);
        if (s.compare(i, lit.size(), lit) != 0)
            return false;
        i += lit.size();
        return true;
    }
    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        for (; i < s.size(); ++i) {
            char c = s[i];
            if (c == '"') {
                ++i;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c == '\\') {
                if (++i >= s.size())
                    return false;
                switch (s[i]) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u': i += 4; out += '?'; break;
                  default: out += s[i]; break;
                }
                continue;
            }
            out += c;
        }
        return false;
    }
    bool
    value(JsonValue &v)
    {
        ws();
        if (i >= s.size())
            return false;
        char c = s[i];
        if (c == '{') {
            ++i;
            v.type = JsonValue::Type::Object;
            if (eat('}'))
                return true;
            do {
                std::string key;
                JsonValue member;
                if (!string(key) || !eat(':') || !value(member))
                    return false;
                v.members.emplace_back(std::move(key), std::move(member));
            } while (eat(','));
            return eat('}');
        }
        if (c == '[') {
            ++i;
            v.type = JsonValue::Type::Array;
            if (eat(']'))
                return true;
            do {
                v.items.emplace_back();
                if (!value(v.items.back()))
                    return false;
            } while (eat(','));
            return eat(']');
        }
        if (c == '"') {
            v.type = JsonValue::Type::String;
            return string(v.string);
        }
        if (word("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return true;
        }
        if (word("false")) {
            v.type = JsonValue::Type::Bool;
            return true;
        }
        if (word("null"))
            return true;
        const char *begin = s.c_str() + i;
        char *end = nullptr;
        v.number = std::strtod(begin, &end);
        if (end == begin ||
            !(c == '-' || std::isdigit(static_cast<unsigned char>(c))))
            return false;
        v.type = JsonValue::Type::Number;
        i += static_cast<std::size_t>(end - begin);
        return true;
    }
};

} // namespace mini_json_detail

/** Parse all of @p text into @p out; false (with @p error) on bad JSON. */
inline bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    mini_json_detail::Parser p{text};
    if (p.value(out)) {
        p.ws();
        if (p.i == text.size())
            return true;
    }
    error = "invalid JSON near byte " + std::to_string(p.i) + ": '" +
            text.substr(p.i, 40) + "'";
    return false;
}

/** Parse @p text, failing the calling test when it is not JSON. */
inline JsonValue
parsedJson(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, doc, error)) << error;
    return doc;
}

/** A Chrome trace's events of phase @p ph ("X", "C" or "M"). */
inline std::vector<const JsonValue *>
traceEvents(const JsonValue &trace, const std::string &ph)
{
    std::vector<const JsonValue *> out;
    if (const JsonValue *events = trace.get("traceEvents"))
        for (const JsonValue &e : events->items)
            if (e.str("ph") == ph)
                out.push_back(&e);
    return out;
}

#endif // TRANSFW_TESTS_MINI_JSON_HPP
